# Run one headline bench (or example) and compare its stdout with a
# checked-in golden copy. The banner (a bench's first 3 lines echo the
# CAIS_JOBS worker count) and any "wrote <path>" line are dropped
# first, so the check is independent of the host's core count and the
# output directory.
#
#   cmake -DBENCH=<binary> -DARGS="dim=0.25;tok=0.125" \
#         -DGOLDEN=<file> -DACTUAL=<file> [-DBANNER_LINES=3] \
#         -P check_stdout.cmake
#
# BANNER_LINES (default 3) is the number of leading lines dropped; 0
# for a program that prints no banner. On a mismatch the filtered
# stdout is left in ACTUAL for a diff.

if(NOT DEFINED BANNER_LINES)
    set(BANNER_LINES 3)
endif()

execute_process(COMMAND ${BENCH} ${ARGS}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

if(BANNER_LINES GREATER 0)
    string(REPEAT "[^\n]*\n" ${BANNER_LINES} banner_re)
    string(REGEX MATCH "^${banner_re}" banner "${out}")
    string(LENGTH "${banner}" banner_len)
    string(SUBSTRING "${out}" ${banner_len} -1 out)
endif()
string(REGEX REPLACE "\nwrote [^\n]*\n" "\n" out "${out}")

file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
    file(WRITE ${ACTUAL} "${out}")
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                        "see: diff -u ${GOLDEN} ${ACTUAL}")
endif()
