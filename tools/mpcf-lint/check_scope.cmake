# Scope check for mpcf-lint, run as a ctest target: rules must classify a
# file by its path inside the linted tree, not by where the tree lives. In a
# checkout under a directory whose name ends in "src", test code must stay
# test code, and code under the tree's own src/ must stay production code.
#
# Usage: cmake -DLINT=<mpcf-lint> -DWORK=<work dir> -P check_scope.cmake

set(root "${WORK}/final_src")
file(REMOVE_RECURSE "${WORK}")
# A thread entry without an exception barrier: a finding in src/ only.
set(body "#include <thread>\nvoid f() {\n  std::thread t([] { f(); });\n  t.join();\n}\n")
file(WRITE "${root}/tests/t.cpp" "${body}")
file(WRITE "${root}/src/core/t.cpp" "${body}")

execute_process(COMMAND ${LINT} ${root}/tests OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "test code under ${root}/tests linted as production code "
                      "(exit ${rc}):\n${out}")
endif()

execute_process(COMMAND ${LINT} ${root}/src OUTPUT_VARIABLE out RESULT_VARIABLE rc)
string(FIND "${out}" "src/core/t.cpp:3: [thread-entry-exception-barrier]" pos)
if(NOT rc EQUAL 1 OR pos EQUAL -1)
  message(FATAL_ERROR "production code under ${root}/src not linted as such "
                      "(exit ${rc}):\n${out}")
endif()
file(REMOVE_RECURSE "${WORK}")
