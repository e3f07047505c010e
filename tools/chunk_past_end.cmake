# Checks `wrltrace cat --chunk` at the exact end of an archive: reads the
# chunk count N from `wrltrace info`, then requires `--chunk N-1` to be
# accepted and `--chunk N` to be rejected with the usage text (exit 2):
#
#   cmake -DWRLTRACE=PROGRAM -DARCHIVE=FILE -P chunk_past_end.cmake
execute_process(COMMAND ${WRLTRACE} info ${ARCHIVE} RESULT_VARIABLE code OUTPUT_VARIABLE info)
if(NOT code STREQUAL "0" OR NOT info MATCHES "\n  ([0-9]+) chunks, ")
  message(FATAL_ERROR "wrltrace info ${ARCHIVE} exited ${code}:\n${info}")
endif()
set(chunks ${CMAKE_MATCH_1})
math(EXPR last "${chunks} - 1")
execute_process(COMMAND ${WRLTRACE} cat ${ARCHIVE} --chunk ${last} --limit 1
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "--chunk ${last} of ${chunks} chunks exited ${code}:\n${err}")
endif()
set(CMD "${WRLTRACE};cat;${ARCHIVE};--chunk;${chunks}")
set(EXPECT_EXIT 2)
set(EXPECT_STDERR
    "^wrltrace: --chunk ${chunks} out of range \\(archive has ${chunks} chunks\\)\nusage: wrltrace")
include(${CMAKE_CURRENT_LIST_DIR}/cli_test.cmake)
