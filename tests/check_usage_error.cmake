# Run a CLI with arguments the front door must reject and require
# exit code 2 plus a stderr message matching MESSAGE.
#
#   cmake -DCLI=<binary> -DARGS="dim=-1" -DMESSAGE=<regex> \
#         -P check_usage_error.cmake

execute_process(COMMAND ${CLI} ${ARGS}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${CLI} ${ARGS} exited with ${rc}, expected 2\n"
                        "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
    message(FATAL_ERROR "${CLI} ${ARGS}: stderr does not match "
                        "'${MESSAGE}':\n${err}")
endif()
