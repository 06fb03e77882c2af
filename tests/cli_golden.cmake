# Single-FILE CLI golden test: runs `vifc` on fixed inputs and compares
# each run's exit code, stdout and stderr byte for byte against
# tests/golden/<case>.txt. Invoked by ctest as
#   cmake -DVIFC=<path> -DGOLDEN=<tests/golden> -DSTORE=<scratch dir>
#         -P cli_golden.cmake
# from the tests/ directory, so every path in the outputs is relative.
# Add -DRECORD=ON to (re)write the golden files from the given binary.
# Single-FILE text prints no timing, so the runs compare unmasked.

set(failures "")

# golden(<case> <stdin file or "">  <vifc args>...)
function(golden name stdin)
  if(stdin)
    set(in INPUT_FILE ${stdin})
  else()
    set(in "")
  endif()
  execute_process(COMMAND ${VIFC} ${ARGN}
                  ${in}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  set(got "exit: ${rc}\n--- stdout\n${out}--- stderr\n${err}")
  set(file "${GOLDEN}/${name}.txt")
  if(RECORD)
    file(WRITE "${file}" "${got}")
    return()
  endif()
  if(NOT EXISTS "${file}")
    set(failures "${failures}${name}: no golden file ${file}\n"
        PARENT_SCOPE)
    return()
  endif()
  file(READ "${file}" want)
  if(NOT got STREQUAL want)
    set(failures
        "${failures}${name} (vifc ${ARGN}):\n--- want\n${want}--- got\n${got}\n"
        PARENT_SCOPE)
  endif()
endfunction()

golden(check "" check inputs/smoke.vhd)
golden(flows "" flows inputs/corpus/gen_2.vhd)
golden(flows_kemmerer "" flows --kemmerer inputs/corpus/gen_2.vhd)
golden(flows_alfp "" flows --alfp inputs/corpus/gen_2.vhd)
golden(flows_dot "" flows --dot inputs/smoke.vhd)
golden(flows_dot_kemmerer "" flows --dot --kemmerer inputs/smoke.vhd)
golden(flows_dot_alfp "" flows --dot --alfp inputs/smoke.vhd)
golden(flows_improved_end_out "" flows --improved --end-out
       inputs/corpus/gen_2.vhd)
golden(rm "" rm inputs/corpus/gen_2.vhd)
golden(report "" report inputs/smoke.vhd)
golden(report_forbid "" report --forbid sel,q --forbid q,d0
       inputs/smoke.vhd)
golden(query "" query --from sel --to q inputs/smoke.vhd)
golden(check_broken "" check inputs/broken.vhd)
golden(flows_broken "" flows inputs/broken.vhd)
golden(rm_unreadable "" rm inputs/no-such-design.vhd)
golden(report_unreadable "" report inputs/no-such-design.vhd)
golden(flows_stdin inputs/smoke.vhd flows -)
golden(check_stdin inputs/smoke.vhd check -)

# Two runs sharing a store: the first misses and writes, the second is a
# pure hit. The summary lines carry the byte counts, so they pin the
# blob sizes too.
file(REMOVE_RECURSE "${STORE}")
golden(flows_store_prime "" flows --store ${STORE} inputs/smoke.vhd)
golden(flows_store_hit "" flows --store ${STORE} inputs/smoke.vhd)
golden(rm_store_hit "" rm --store ${STORE} inputs/smoke.vhd)
golden(query_store_prime "" query --store ${STORE} --from sel --to q
       inputs/smoke.vhd)
golden(query_store_hit "" query --store ${STORE} --from sel --to q
       inputs/smoke.vhd)
file(REMOVE_RECURSE "${STORE}")

if(failures)
  message(FATAL_ERROR "single-FILE output differs from tests/golden:\n"
                      "${failures}")
endif()
