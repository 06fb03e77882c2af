# CLI smoke test: exercise the built vifc binary end-to-end on real VHDL
# designs. Invoked by ctest as
#   cmake -DVIFC=<path> -DINPUT=<smoke.vhd> -DINPUT2=<smoke2.vhd>
#         -DBADINPUT=<broken.vhd> -P cli_smoke.cmake
# Fails (FATAL_ERROR) if any subcommand misbehaves: wrong exit code,
# missing implicit-flow edge, broken --json/batch output, or argument
# errors that don't produce the usage exit code.

function(run_vifc out_var)
  execute_process(COMMAND ${VIFC} ${ARGN} ${INPUT}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vifc ${ARGN} failed (rc=${rc}):\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Expects rc == ${rc_want}; stdout+stderr are returned in ${out_var}.
function(run_vifc_rc out_var rc_want)
  execute_process(COMMAND ${VIFC} ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${rc_want})
    message(FATAL_ERROR
            "vifc ${ARGN}: expected rc=${rc_want}, got rc=${rc}:\n${out}\n${err}")
  endif()
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

run_vifc(check_out check)
run_vifc(flows_out flows)
run_vifc(rm_out rm)
run_vifc(sim_out sim)

if(NOT flows_out MATCHES "sel[ \t]*->[ \t]*q")
  message(FATAL_ERROR "vifc flows did not report the implicit flow sel -> q:\n${flows_out}")
endif()

# --json on a single file: machine-readable, status ok, same implicit
# flow, and the versioned schema tag leading the document.
run_vifc(json_out flows --json)
if(NOT json_out MATCHES [["status": "ok"]] OR NOT json_out MATCHES [["from": "sel"]])
  message(FATAL_ERROR "vifc flows --json output malformed:\n${json_out}")
endif()
if(NOT json_out MATCHES [["schema": "vifc.v1"]])
  message(FATAL_ERROR "vifc flows --json lacks the vifc.v1 schema tag:\n${json_out}")
endif()

# Point queries: text answer with a witness chain, the same through
# --json, and a negative answer still exits 0 (only analysis failures
# flag the exit code).
run_vifc(query_out query --from sel --to q)
if(NOT query_out MATCHES "reaches\\(sel, q\\): yes" OR
   NOT query_out MATCHES "witness: sel -> q")
  message(FATAL_ERROR "vifc query text output malformed:\n${query_out}")
endif()
run_vifc(queryjson_out query --from sel --to q --json)
if(NOT queryjson_out MATCHES [["reaches": true]] OR
   NOT queryjson_out MATCHES [["command": "query"]] OR
   NOT queryjson_out MATCHES [["node": "sel"]])
  message(FATAL_ERROR "vifc query --json output malformed:\n${queryjson_out}")
endif()
run_vifc(queryneg_out query --from q --to sel)
if(NOT queryneg_out MATCHES "reaches\\(q, sel\\): no")
  message(FATAL_ERROR "vifc negative query misreported:\n${queryneg_out}")
endif()

# sim and datalog also speak vifc.v1 under --json.
run_vifc(simjson_out sim --json)
if(NOT simjson_out MATCHES [["schema": "vifc.v1"]] OR
   NOT simjson_out MATCHES [["command": "sim"]] OR
   NOT simjson_out MATCHES [["status": "quiescent"]])
  message(FATAL_ERROR "vifc sim --json output malformed:\n${simjson_out}")
endif()

# Multi-FILE batch: both designs analyzed, summary says 2 ok.
run_vifc_rc(batch_out 0 check --json ${INPUT} ${INPUT2})
if(NOT batch_out MATCHES [["ok": 2]])
  message(FATAL_ERROR "vifc batch over two designs did not report 2 ok:\n${batch_out}")
endif()

# A broken design must not stop the batch: the good design still reports
# ok, the broken one reports error, and the exit code flags the failure.
run_vifc_rc(mixed_out 1 flows --json ${INPUT} ${BADINPUT})
if(NOT mixed_out MATCHES [["status": "ok"]] OR NOT mixed_out MATCHES [["status": "error"]])
  message(FATAL_ERROR "vifc batch did not keep going past a broken design:\n${mixed_out}")
endif()

# Argument errors: a malformed --deltas value and a trailing value-taking
# option must diagnose and return the usage exit code (2), not abort.
run_vifc_rc(deltas_out 2 sim --deltas abc ${INPUT})
if(NOT deltas_out MATCHES "expects a non-negative integer")
  message(FATAL_ERROR "vifc --deltas abc did not diagnose:\n${deltas_out}")
endif()
run_vifc_rc(trailing_out 2 sim ${INPUT} --deltas)
if(NOT trailing_out MATCHES "requires a value")
  message(FATAL_ERROR "vifc trailing --deltas did not diagnose:\n${trailing_out}")
endif()
run_vifc_rc(stdin_out 2 check - -)
if(NOT stdin_out MATCHES "at most once")
  message(FATAL_ERROR "vifc did not reject duplicate stdin inputs:\n${stdin_out}")
endif()

# --help (anywhere) prints usage on stdout and exits 0; unknown options,
# unknown commands and command/flag mismatches all exit 2.
run_vifc_rc(help_out 0 --help)
if(NOT help_out MATCHES "usage: vifc")
  message(FATAL_ERROR "vifc --help did not print usage:\n${help_out}")
endif()
run_vifc_rc(help2_out 0 help)
run_vifc_rc(help3_out 0 flows --help)
run_vifc_rc(unknown_out 2 flows --no-such-flag ${INPUT})
if(NOT unknown_out MATCHES "unknown option")
  message(FATAL_ERROR "vifc unknown option not diagnosed:\n${unknown_out}")
endif()
run_vifc_rc(unknowncmd_out 2 frobnicate ${INPUT})
if(NOT unknowncmd_out MATCHES "unknown command")
  message(FATAL_ERROR "vifc unknown command not diagnosed:\n${unknowncmd_out}")
endif()
# ... also without a FILE, and before any flag diagnostics.
run_vifc_rc(unknowncmd2_out 2 frobnicate)
if(NOT unknowncmd2_out MATCHES "unknown command")
  message(FATAL_ERROR "bare unknown command not diagnosed:\n${unknowncmd2_out}")
endif()
run_vifc_rc(unknowncmd3_out 2 frobnicate --json ${INPUT})
if(NOT unknowncmd3_out MATCHES "unknown command")
  message(FATAL_ERROR "unknown command with flag misdiagnosed:\n${unknowncmd3_out}")
endif()
run_vifc_rc(mismatch_out 2 check --dot ${INPUT})
if(NOT mismatch_out MATCHES "does not apply")
  message(FATAL_ERROR "vifc command/flag mismatch not diagnosed:\n${mismatch_out}")
endif()
# query requires both endpoints; a trailing --from needs its value; and
# --from belongs to query alone.
run_vifc_rc(queryfrom_out 2 query --from sel ${INPUT})
if(NOT queryfrom_out MATCHES "requires both --from and --to")
  message(FATAL_ERROR "vifc query without --to not diagnosed:\n${queryfrom_out}")
endif()
run_vifc_rc(querytrail_out 2 query ${INPUT} --from)
if(NOT querytrail_out MATCHES "requires a value")
  message(FATAL_ERROR "vifc trailing --from not diagnosed:\n${querytrail_out}")
endif()
run_vifc_rc(queryflag_out 2 flows --from sel --to q ${INPUT})
if(NOT queryflag_out MATCHES "does not apply")
  message(FATAL_ERROR "vifc --from on flows not diagnosed:\n${queryflag_out}")
endif()
run_vifc_rc(servefile_out 2 serve ${INPUT})
if(NOT servefile_out MATCHES "takes no FILE")
  message(FATAL_ERROR "vifc serve with FILE not diagnosed:\n${servefile_out}")
endif()

# --json runs report their --store traffic in a top-level store object:
# the priming run misses and writes the design blob, the second is a pure
# hit. Without --store there is no store object.
set(store_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_store")
file(REMOVE_RECURSE "${store_dir}")
foreach(want "0 1 1" "1 0 0")
  run_vifc(store_json flows --json --store ${store_dir})
  string(JSON hits GET "${store_json}" store hits)
  string(JSON misses GET "${store_json}" store misses)
  string(JSON writes GET "${store_json}" store writes)
  if(NOT "${hits} ${misses} ${writes}" STREQUAL "${want}")
    message(FATAL_ERROR "vifc flows --json --store: store hits/misses/writes "
                        "${hits} ${misses} ${writes}, want ${want}:\n"
                        "${store_json}")
  endif()
endforeach()
file(REMOVE_RECURSE "${store_dir}")
string(JSON no_store ERROR_VARIABLE no_store_err GET "${json_out}" store)
if(NOT no_store_err)
  message(FATAL_ERROR "vifc flows --json without --store has a store "
                      "object:\n${json_out}")
endif()

message(STATUS "vifc CLI smoke test passed")
