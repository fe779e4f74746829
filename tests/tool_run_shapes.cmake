# Tool-level run-shape parity for wantraffic_analyze pkt: one synthesized
# trace, analyzed batch and --stream, each unfiltered and --filtered,
# must print the same "count process:" report block and write the same
# --vt-csv bytes within each filter setting.
# Registered by tests/CMakeLists.txt (ctest label `stream`); by hand:
#
#   cmake -DSYNTH=build/tools/wantraffic_synth \
#         -DANALYZE=build/tools/wantraffic_analyze \
#         -DWORK=/tmp/run_shapes -P tests/tool_run_shapes.cmake
cmake_minimum_required(VERSION 3.16)

foreach(var SYNTH ANALYZE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(trace "${WORK}/trace.bin")
execute_process(
  COMMAND "${SYNTH}" pkt --out "${trace}" --binary --hours 0.5 --seed 7
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "wantraffic_synth failed: ${rc}")
endif()

# Runs one shape; sets report_<tag> to the stdout from "count process:"
# on and leaves the figure CSV at ${WORK}/<tag>.csv.
function(run_shape tag)
  execute_process(
    COMMAND "${ANALYZE}" pkt "${trace}" --binary ${ARGN}
            --vt-csv "${WORK}/${tag}.csv"
    WORKING_DIRECTORY "${WORK}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tag} (${ARGN}) exited ${rc}:\n${out}${err}")
  endif()
  string(FIND "${out}" "count process:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${tag} printed no count-process report:\n${out}")
  endif()
  string(SUBSTRING "${out}" ${at} -1 report)
  set(report_${tag} "${report}" PARENT_SCOPE)
endfunction()

foreach(filter "" --filtered)
  set(tag_prefix "all")
  if(filter)
    set(tag_prefix "filtered")
  endif()
  run_shape(${tag_prefix}_batch ${filter})
  run_shape(${tag_prefix}_stream --stream ${filter})
  set(want ${tag_prefix}_batch)
  set(got ${tag_prefix}_stream)
  if(NOT report_${got} STREQUAL report_${want})
    message(FATAL_ERROR "${got} report differs from ${want}:\n"
                        "${report_${got}}\nvs\n${report_${want}}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK}/${got}.csv" "${WORK}/${want}.csv"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${got}.csv differs from ${want}.csv")
  endif()
endforeach()
message(STATUS "batch and --stream agree, with and without --filtered")
