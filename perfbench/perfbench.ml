(* The repository's benchmark: one workload per invocation, a closed
   loop against the public library API, every output checked.

     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   The last stdout line is one JSON object: correct, attempted, failed
   and metrics — the end-to-end metrics with --trace 0, the per-layer
   metrics (timed from here, around each layer's public functions)
   with --trace 1. See perfbench/README.md. *)

open Meter

(* Name and unit of every metric a run prints; a workload that
   bypasses a layer reports 0 for it. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_requests_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("algo.run_ms", "ms");
    ("algo.invocations", "count");
    ("ball.extract_ms", "ms");
    ("ball.extract_calls", "count");
    ("ball.view_nodes", "count");
    ("ball.fingerprint_ms", "ms");
    ("keytab.probe_ms", "ms");
    ("keytab.probes", "count");
    ("keytab.hit_ratio", "ratio");
    ("prng.derive_ms", "ms");
    ("verify.check_ms", "ms");
    ("runner.residual_ms", "ms");
    ("runner.run_ms", "ms");
    ("gc.minor_mb", "MB");
    ("gc.promoted_mb", "MB");
    ("gc.major_collections", "count");
    ("protocol.encode_ms", "ms");
    ("protocol.decode_ms", "ms");
    ("protocol.fingerprint_ms", "ms");
    ("protocol.write_ms", "ms");
    ("protocol.request_bytes", "B");
    ("protocol.response_bytes", "B");
    ("diskcache.find_ms", "ms");
    ("diskcache.add_ms", "ms");
    ("diskcache.flush_ms", "ms");
    ("diskcache.hit_ratio", "ratio");
    ("engine.simulate_ms", "ms");
    ("engine.faultsim_ms", "ms");
    ("engine.classify_ms", "ms");
    ("engine.gap_ms", "ms");
    ("daemon.round_trip_ms", "ms");
    ("daemon.hit_p50_ms", "ms");
    ("daemon.hit_p99_ms", "ms");
    ("daemon.miss_p50_ms", "ms");
    ("daemon.miss_p90_ms", "ms");
    ("daemon.transport_ms", "ms");
    ("daemon.failed", "count");
    ("daemon.shed", "count");
    ("daemon.degraded", "count");
    ("host.probe_ms", "ms");
    ("host.alloc_probe_ms", "ms");
    ("trace.overhead_pct", "%");
  ]

(* Set-ups per run; [setup_s] is their median. *)
let setups = 3

let workloads = [ "torus-color-cold"; "torus-echo-memo"; "serve-mix" ]

let usage =
  "perfbench --workload <" ^ String.concat "|" workloads
  ^ "> --seed <n> --seconds <s> --trace <0|1>"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics, 0 = end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) || !seed < 0 || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  (* a terminated run still stops its daemons (at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let trace = !trace = 1 and seed = !seed and seconds = float_of_int !seconds in
  (* spans inside the program stay off: per-layer times are taken from
     here, around the calls *)
  Obs.disable ();
  let probe_start = host_probe_ms () in
  let setups, attempted, failed, metrics =
    match !workload with
    | "serve-mix" ->
      let r = Serve_bench.measure ~seed ~seconds ~trace ~setups in
      Serve_bench.(r.setups, r.attempted, r.failed, r.metrics)
    | w ->
      let spec =
        if w = "torus-color-cold" then Torus_bench.color_cold
        else Torus_bench.echo_memo
      in
      let r = Torus_bench.measure spec ~seed ~seconds ~trace ~setups in
      Torus_bench.(r.setups, r.attempted, r.failed, r.metrics)
  in
  let probe_end = host_probe_ms () in
  note "set-ups: %s s"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setups));
  let (reg0, alloc0), (reg1, alloc1) = (probe_start, probe_end) in
  note "host probe: register %.3f ms at start, %.3f ms at end; allocation \
        %.3f ms at start, %.3f ms at end" reg0 reg1 alloc0 alloc1;
  let measured =
    ("setup_s", median setups)
    :: ("host.probe_ms", (reg0 +. reg1) /. 2.)
    :: ("host.alloc_probe_ms", (alloc0 +. alloc1) /. 2.)
    :: metrics
  in
  let table = if trace then per_layer else end_to_end in
  let out =
    List.map
      (fun (name, unit) ->
        metric name unit
          (Option.value ~default:0. (List.assoc_opt name measured)))
      table
  in
  print_result ~correct:(failed = 0) ~attempted ~failed out;
  exit (if failed = 0 then 0 else 1)
