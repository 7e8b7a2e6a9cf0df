# Run one bench, example or tool in a fresh working directory and
# byte-compare its stdout against a stored golden file.
#
#   cmake -DBIN=<binary> [-DARGS=<arg;arg;...>] -DGOLDEN=<file>
#         -DWORKDIR=<dir> -P compare.cmake
#
# ARGS is an optional CMake list of command-line arguments. Benches
# write BENCH_*.json into the current directory, so each run gets a
# directory of its own. stderr is not compared.

foreach(var BIN GOLDEN WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(actual "${WORKDIR}/stdout.txt")

execute_process(COMMAND "${BIN}" ${ARGS}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_FILE "${actual}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with '${rc}'")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${actual}" "${GOLDEN}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                        "the actual output is in ${actual}")
endif()
