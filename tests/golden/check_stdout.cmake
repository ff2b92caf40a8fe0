# Run one headline bench and compare its stdout with a checked-in
# golden copy. The 3-line banner (it echoes the CAIS_JOBS worker
# count) and any "wrote <path>" line are dropped first, so the check
# is independent of the host's core count and the output directory.
#
#   cmake -DBENCH=<binary> -DARGS="dim=0.25;tok=0.125" \
#         -DGOLDEN=<file> -DACTUAL=<file> -P check_stdout.cmake
#
# On a mismatch the filtered stdout is left in ACTUAL for a diff.

execute_process(COMMAND ${BENCH} ${ARGS}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

string(REGEX MATCH "^[^\n]*\n[^\n]*\n[^\n]*\n" banner "${out}")
string(LENGTH "${banner}" banner_len)
string(SUBSTRING "${out}" ${banner_len} -1 out)
string(REGEX REPLACE "\nwrote [^\n]*\n" "\n" out "${out}")

file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
    file(WRITE ${ACTUAL} "${out}")
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                        "see: diff -u ${GOLDEN} ${ACTUAL}")
endif()
