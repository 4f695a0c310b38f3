# ctest script: runs the model-checked lint over every program and fails
# unless its JSON report equals the checked-in golden byte for byte.
# Invoked as:
#   cmake -DP4AUTH_LINT=<binary> -DGOLDEN=<file> -P lint_golden.cmake
# After an intended report change, regenerate the golden with
#   p4auth_lint --all-apps --model --format=json > <golden file>
execute_process(
  COMMAND ${P4AUTH_LINT} --all-apps --model --format=json
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "p4auth_lint failed with exit code ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "lint report differs from ${GOLDEN}; got:\n${actual}")
endif()
