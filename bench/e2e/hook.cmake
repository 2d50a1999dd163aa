# Adds bench/e2e to the repository's own build without editing it:
#
#   cmake -S . -B .bench_build \
#         -DCMAKE_PROJECT_cross_insight_trader_INCLUDE=$PWD/bench/e2e/hook.cmake
#
# CMake includes this file from the root CMakeLists.txt's project() call.
# The deferred call runs when the root file is done, in the root directory's
# scope (CMake allows no add_subdirectory there, so it includes the file),
# so citbench's targets get the repository's flags, options and include
# paths exactly as a subdirectory's would.
set(CITBENCH_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")

function(citbench_add)
  if(NOT TARGET citbench)  # bench/CMakeLists.txt may add e2e itself
    include("${CITBENCH_LISTS}")
  endif()
endfunction()

cmake_language(DEFER CALL citbench_add)
