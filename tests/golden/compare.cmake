# Golden-output check for one memo invocation.
#
#   cmake -DMEMO=<memo binary> -DGOLDEN_DIR=<tests/golden> -DNAME=<case>
#         -DWORK_DIR=<scratch dir> "-DARGS=<memo args, ;-separated>"
#         [-DEXT=txt] -P compare.cmake
#
# Runs memo with ARGS inside WORK_DIR and byte-compares its stdout with
# GOLDEN_DIR/NAME.csv, or GOLDEN_DIR/NAME.txt with EXT=txt for human
# text (tables, verdicts, --help). A case that passes `--metrics-out
# metrics.csv` also has its metrics timeline compared with
# GOLDEN_DIR/NAME.metrics.csv.
# stderr (rate-limited warnings) is not compared; memo must exit 0.
#
# With CXLMEMO_UPDATE_GOLDEN=1 in the environment the outputs are
# written to GOLDEN_DIR instead of compared -- regenerate only when a
# change is meant to move the numbers, and say why.

foreach(var MEMO GOLDEN_DIR NAME WORK_DIR ARGS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare.cmake: ${var} not set")
    endif()
endforeach()
if(NOT DEFINED EXT)
    set(EXT csv)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND "${MEMO}" ${ARGS}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${WORK_DIR}/stdout.${EXT}"
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "memo ${ARGS} exited ${rc}: ${err}")
endif()

set(pairs "stdout.${EXT}=${NAME}.${EXT}")
if(EXISTS "${WORK_DIR}/metrics.csv")
    list(APPEND pairs "metrics.csv=${NAME}.metrics.csv")
endif()

foreach(pair IN LISTS pairs)
    string(REPLACE "=" ";" pair "${pair}")
    list(GET pair 0 actual)
    list(GET pair 1 golden)
    if("$ENV{CXLMEMO_UPDATE_GOLDEN}" STREQUAL "1")
        configure_file("${WORK_DIR}/${actual}" "${GOLDEN_DIR}/${golden}"
                       COPYONLY)
        continue()
    endif()
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORK_DIR}/${actual}" "${GOLDEN_DIR}/${golden}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR
            "${NAME}: ${WORK_DIR}/${actual} differs from golden "
            "${GOLDEN_DIR}/${golden}")
    endif()
endforeach()
