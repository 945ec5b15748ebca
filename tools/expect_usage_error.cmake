# Runs gpar_tool with ARGS and requires a usage error: exit code 2 with
# stderr matching EXPECT.
#
#   cmake -DTOOL=path/to/gpar_tool "-DARGS=serve --shards 0" \
#         -DEXPECT=regex -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "gpar_tool ${ARGS} exited ${rc}; want 2 and "
                      "'${EXPECT}' on stderr:\n${out}\n${err}")
endif()
