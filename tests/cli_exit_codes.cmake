# Runs every row of the tools' exit-code table (cli_exit_codes.txt)
# and fails, listing each mismatch, unless every command exits with
# the code its row expects.
#
# Expected -D variables: BUILD_DIR (build tree the commands are
# relative to), TABLE (the row file), WORK_DIR (scratch directory the
# commands run in).

file(MAKE_DIRECTORY "${WORK_DIR}")
file(STRINGS "${TABLE}" rows)
set(failures "")
set(count 0)
foreach(row IN LISTS rows)
    if(row MATCHES "^[ \t]*(#|$)")
        continue()
    endif()
    if(NOT row MATCHES "^ *([0-9]+) *\\| *([^|]*[^ |]) *\\| *(.+)$")
        message(FATAL_ERROR "malformed row: '${row}'")
    endif()
    set(want "${CMAKE_MATCH_1}")
    set(env "${CMAKE_MATCH_2}")
    separate_arguments(cmd UNIX_COMMAND "${CMAKE_MATCH_3}")
    list(POP_FRONT cmd exe)
    if(env STREQUAL "-")
        set(env "")
    else()
        separate_arguments(env UNIX_COMMAND "${env}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${env}
                            "${BUILD_DIR}/${exe}" ${cmd}
                    WORKING_DIRECTORY "${WORK_DIR}"
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err
                    TIMEOUT 120)
    math(EXPR count "${count} + 1")
    if(NOT rc STREQUAL want)
        string(APPEND failures
               "\n  want ${want}, got ${rc}: ${row}\n    stderr: ${err}")
    endif()
endforeach()
if(failures)
    message(FATAL_ERROR "exit-code mismatches:${failures}")
endif()
message(STATUS "${count} tool invocations exited as expected")
