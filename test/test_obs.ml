(* Tests for the observability layer: span nesting and ring buffers,
   the metrics registry, exporter formats (Chrome trace, byte-stable
   JSONL, summary), trace-shape regressions over the simulators
   (memoized re-runs, resilient runs, pipeline checkpoint/resume), and
   the cross-exporter / cross-domain-count properties. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_trace = Helpers.with_trace
let assert_counter = Helpers.assert_counter
let assert_span_count = Helpers.assert_span_count

(* -- spans -------------------------------------------------------------- *)

let test_span_nesting () =
  let (), events, _ =
    with_trace (fun () ->
        Obs.Span.with_ "outer" (fun () ->
            Obs.Span.with_ "inner" (fun () -> ());
            Obs.Span.with_ "inner" (fun () -> ())))
  in
  check int "three spans" 3 (List.length events);
  (* inner spans close first, so they carry the lower seqs *)
  let names = List.map (fun e -> e.Obs.Span.name) events in
  check (Alcotest.list string) "close order" [ "inner"; "inner"; "outer" ]
    names;
  let depths = List.map (fun e -> e.Obs.Span.depth) events in
  check (Alcotest.list int) "depths" [ 1; 1; 0 ] depths;
  List.iteri (fun i e -> check int "seq" i e.Obs.Span.seq) events

let test_span_exception_safety () =
  let r, events, _ =
    with_trace (fun () ->
        match Obs.Span.with_ "boom" (fun () -> failwith "x") with
        | exception Failure m -> m
        | _ -> "no-exception")
  in
  check string "exception propagates" "x" r;
  assert_span_count events "boom" 1

let test_span_timestamps_ordered () =
  let (), events, _ =
    with_trace (fun () -> Obs.Span.with_ "t" (fun () -> ignore (Sys.opaque_identity 1)))
  in
  List.iter
    (fun e ->
      check bool "stop >= start" true Obs.Span.(e.t_stop >= e.t_start))
    events

(* How many disabled calls the allocation checks make: enough that a
   single word per call would dwarf the constant cost of measuring. *)
let calls = 100_000

let test_span_disabled_noop () =
  let was_on = Obs.enabled () in
  Obs.disable ();
  Obs.reset ();
  Obs.Span.with_ "invisible" (fun () -> ());
  check int "nothing recorded" 0 (Obs.Span.total_recorded ());
  if was_on then Obs.enable ();
  let words =
    Helpers.allocated_words (fun () ->
        for _ = 1 to calls do
          Obs.Span.with_ "invisible" (fun () -> ())
        done)
  in
  check bool
    (Printf.sprintf "%d disabled spans allocate a constant (%d words)" calls
       words)
    true
    (words <= Helpers.measure_words)

let test_ring_wraparound () =
  let (), events, _ =
    with_trace ~ring_capacity:8 (fun () ->
        for _ = 1 to 13 do
          Obs.Span.with_ "w" (fun () -> ())
        done)
  in
  (* capacity 8: the 13 spans wrap, the newest 8 survive *)
  check int "kept" 8 (List.length events);
  let seqs = List.map (fun e -> e.Obs.Span.seq) events in
  check (Alcotest.list int) "newest seqs survive" [ 5; 6; 7; 8; 9; 10; 11; 12 ]
    seqs

let test_wraparound_accounting () =
  let was_on = Obs.enabled () in
  Obs.enable ();
  Obs.reset ~ring_capacity:8 ();
  for _ = 1 to 13 do
    Obs.Span.with_ "w" (fun () -> ())
  done;
  check int "total_recorded" 13 (Obs.Span.total_recorded ());
  check int "dropped" 5 (Obs.Span.dropped ());
  Obs.reset ~ring_capacity:Obs.Span.default_capacity ();
  if not was_on then Obs.disable ()

let test_multi_domain_merge () =
  let _, events, _ =
    with_trace (fun () ->
        Util.Parallel.init ~domains:4 64 (fun i ->
            Obs.Span.with_ "work" (fun () -> i * i)))
  in
  (* one parallel.chunk per worker, ranks densely renamed 0..3 *)
  assert_span_count events "parallel.chunk" 4;
  assert_span_count events "work" 64;
  let domains =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Span.domain) events)
  in
  check (Alcotest.list int) "dense ranks" [ 0; 1; 2; 3 ] domains;
  (* within a domain, seq is strictly increasing *)
  List.iter
    (fun d ->
      let seqs =
        List.filter_map
          (fun e ->
            if e.Obs.Span.domain = d then Some e.Obs.Span.seq else None)
          events
      in
      check bool "seqs sorted" true (List.sort compare seqs = seqs))
    domains

let test_multi_domain_deterministic_jsonl () =
  let trace () =
    let _, events, metrics =
      with_trace (fun () ->
          Util.Parallel.init ~domains:4 100 (fun i ->
              Obs.Span.with_ "work" (fun () -> i + 1)))
    in
    Obs.Export.jsonl events metrics
  in
  check string "same-workload jsonl identical" (trace ()) (trace ())

(* -- metrics ------------------------------------------------------------ *)

let test_counter () =
  let c = Obs.Metrics.counter "test.counter" in
  let (), _, metrics =
    with_trace (fun () ->
        Obs.Metrics.incr c;
        Obs.Metrics.add c 4)
  in
  assert_counter metrics "test.counter" 5

let test_gauge () =
  let g = Obs.Metrics.gauge "test.gauge" in
  let (), _, metrics =
    with_trace (fun () ->
        Obs.Metrics.set g 42;
        Obs.Metrics.set g 7)
  in
  match List.assoc_opt "test.gauge" metrics with
  | Some (Obs.Metrics.Gauge_v v) -> check int "last set wins" 7 v
  | _ -> Alcotest.fail "gauge missing from snapshot"

let test_histogram () =
  let h = Obs.Metrics.histogram "test.histogram" in
  let (), _, metrics =
    with_trace (fun () ->
        List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 8 ])
  in
  match List.assoc_opt "test.histogram" metrics with
  | Some (Obs.Metrics.Histogram_v { count; sum; max; buckets }) ->
    check int "count" 4 count;
    check int "sum" 14 sum;
    check int "max" 8 max;
    (* power-of-two buckets: 1 -> [1,2), 2 and 3 -> [2,4), 8 -> [8,16) *)
    check
      (Alcotest.list (Alcotest.pair int int))
      "buckets" [ (1, 1); (2, 2); (8, 1) ] buckets
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_metrics_disabled_noop () =
  let c = Obs.Metrics.counter "test.disabled" in
  let was_on = Obs.enabled () in
  Obs.disable ();
  Obs.Metrics.reset ();
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  (match Obs.Metrics.find "test.disabled" with
  | Some v -> check bool "still zero" true (Obs.Metrics.is_zero v)
  | None -> Alcotest.fail "registered metric must be findable");
  if was_on then Obs.enable ();
  let h = Obs.Metrics.histogram "test.disabled.histogram" in
  let words =
    Helpers.allocated_words (fun () ->
        for i = 1 to calls do
          Obs.Metrics.incr c;
          Obs.Metrics.add c i;
          Obs.Metrics.observe h i
        done)
  in
  check bool
    (Printf.sprintf "%d disabled incr/add/observe rounds allocate a constant \
                     (%d words)"
       calls words)
    true
    (words <= Helpers.measure_words)

let test_kind_mismatch () =
  ignore (Obs.Metrics.counter "test.kind");
  match Obs.Metrics.histogram "test.kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering with another kind must raise"

let test_snapshot_sorted () =
  ignore (Obs.Metrics.counter "test.zz");
  ignore (Obs.Metrics.counter "test.aa");
  let names = List.map fst (Obs.Metrics.snapshot ()) in
  check bool "sorted by name" true (List.sort compare names = names)

let test_reset_zeroes () =
  let c = Obs.Metrics.counter "test.reset" in
  let was_on = Obs.enabled () in
  Obs.enable ();
  Obs.Metrics.incr c;
  Obs.Metrics.reset ();
  (match Obs.Metrics.find "test.reset" with
  | Some v -> check bool "zero after reset" true (Obs.Metrics.is_zero v)
  | None -> Alcotest.fail "registration survives reset");
  if not was_on then Obs.disable ()

(* -- exporters ---------------------------------------------------------- *)

let cycle_workload ?(domains = 1) ?(n = 48) ?(seed = 3) () =
  let g = Graph.Builder.oriented_cycle n in
  Local.Runner.run ~seed ~domains ~problem:(Lcl.Zoo.coloring ~k:3 ~delta:2)
    Local.Cole_vishkin.three_coloring g

let test_chrome_parses () =
  let _, events, _ = with_trace (fun () -> cycle_workload ()) in
  let json = Obs.Export.chrome events in
  match Fault.Json.of_string json with
  | exception Fault.Json.Parse_error m -> Alcotest.failf "chrome: %s" m
  | j -> (
    match Fault.Json.member "traceEvents" j with
    | Some (Fault.Json.List evs) ->
      check int "one trace event per span" (List.length events)
        (List.length evs)
    | _ -> Alcotest.fail "traceEvents missing")

let test_jsonl_golden () =
  let c = Obs.Metrics.counter "test.golden" in
  let (), events, metrics =
    with_trace (fun () ->
        Obs.Span.with_ "alpha" (fun () ->
            Obs.Span.with_ "beta" (fun () -> ()));
        Obs.Metrics.add c 3)
  in
  (* only nonzero metrics appear, so the exact bytes are predictable *)
  let expected =
    "{\"ev\":\"span\",\"name\":\"beta\",\"domain\":0,\"seq\":0,\"depth\":1}\n"
    ^ "{\"ev\":\"span\",\"name\":\"alpha\",\"domain\":0,\"seq\":1,\"depth\":0}\n"
    ^ "{\"ev\":\"counter\",\"name\":\"test.golden\",\"value\":3}\n"
  in
  check string "golden jsonl" expected (Obs.Export.jsonl events metrics)

let test_jsonl_byte_stable () =
  let once () =
    let _, events, metrics = with_trace (fun () -> cycle_workload ()) in
    Obs.Export.jsonl events metrics
  in
  check string "two same-seed runs byte-identical" (once ()) (once ())

let test_summary_contents () =
  let _, events, metrics = with_trace (fun () -> cycle_workload ()) in
  let s = Obs.Export.summary events metrics in
  check bool "mentions runner.simulate" true
    (Helpers.contains ~sub:"runner.simulate" s);
  check bool "mentions runner.nodes" true
    (Helpers.contains ~sub:"runner.nodes" s)

(* -- trace-shape regressions over the simulators ------------------------ *)

let torus_workload ~cache () =
  let torus = Grid.Problems.mark_tag_inputs (Grid.Torus.make [| 8; 8 |]) in
  let g = Grid.Torus.graph torus in
  let tids = (Grid.Torus.prod_ids torus).Grid.Torus.packed in
  Local.Runner.run ~ids:(`Fixed tids) ~domains:1 ~cache
    ~problem:(Grid.Problems.dimension_echo ~d:2)
    Grid.Algorithms.dimension_echo g

let test_memo_rerun_no_recomputation () =
  let cache = Local.Runner.memo_cache () in
  (* first run fills the cross-run cache *)
  let o1 = torus_workload ~cache () in
  check int "first run has misses" 0 (List.length o1.Local.Runner.violations);
  (* second run of the same graph: every view hits, zero invocations *)
  let o2, _, metrics = with_trace (fun () -> torus_workload ~cache ()) in
  check int "still valid" 0 (List.length o2.Local.Runner.violations);
  assert_counter metrics "runner.algo_invocations" 0;
  assert_counter metrics "runner.cache_hits" 64;
  assert_counter metrics "runner.nodes" 64;
  (* the shared cache gained nothing: distinct_views counts views
     added by THIS run, not the cache's cumulative size *)
  assert_counter metrics "runner.distinct_views" 0

let test_resilient_empty_plan_shape () =
  let g = Graph.Builder.oriented_cycle 40 in
  let o, events, metrics =
    with_trace (fun () ->
        Local.Runner.run_resilient ~problem:(Lcl.Zoo.coloring ~k:3 ~delta:2)
          Local.Cole_vishkin.three_coloring g)
  in
  (match o with
  | Error e -> Alcotest.failf "resilient: %s" (Fault.Error.to_string e)
  | Ok o ->
    check int "no violations" 0
      (List.length o.Local.Runner.healthy_violations));
  (* an empty fault plan must induce no retry or failure events *)
  assert_counter metrics "runner.retries" 0;
  assert_counter metrics "runner.nodes_ok" 40;
  assert_counter metrics "runner.nodes_crashed" 0;
  assert_counter metrics "runner.nodes_starved" 0;
  assert_counter metrics "runner.nodes_errored" 0;
  assert_span_count events "runner.run_resilient" 1

(* 3-coloring under a tight label budget: iteration 0 steps to the
   63-label f(Pi), iteration 1 exceeds the budget — 2 iterations,
   without ever paying the doubly-exponential second step. *)
let pipeline_run () =
  Relim.Pipeline.run ~max_iterations:2 ~max_labels:60
    (Lcl.Zoo.coloring ~k:3 ~delta:2)

(* Instrumentation runs once per run, never per node: a traced run
   records the same spans at n and at 4n, for the LOCAL runner (torus
   echo, side 8 and 16) and for the VOLUME probe engine (cycle 30 and
   120). *)
let test_spans_independent_of_n () =
  let span_names run =
    let _, events, _ = with_trace run in
    List.sort compare (List.map (fun e -> e.Obs.Span.name) events)
  in
  let torus side () =
    let torus =
      Grid.Problems.mark_tag_inputs (Grid.Torus.make [| side; side |])
    in
    ignore
      (Local.Runner.run
         ~ids:(`Fixed (Grid.Torus.prod_ids torus).Grid.Torus.packed)
         ~domains:1 ~workers:1
         ~problem:(Grid.Problems.dimension_echo ~d:2)
         Grid.Algorithms.dimension_echo (Grid.Torus.graph torus))
  in
  let cycle n () =
    ignore
      (Volume.Probe.run ~domains:1 ~workers:1
         ~problem:(Lcl.Zoo.free_choice ~delta:2)
         (Volume.Algorithms.constant_choice ~name:"const" 0)
         (Graph.Builder.cycle n))
  in
  check (Alcotest.list string) "Runner.run spans at n and 4n"
    (span_names (torus 8)) (span_names (torus 16));
  check (Alcotest.list string) "Probe.run spans at n and 4n"
    (span_names (cycle 30)) (span_names (cycle 120))

let test_pipeline_iteration_spans () =
  let r, events, metrics = with_trace (fun () -> pipeline_run ()) in
  (match r.Relim.Pipeline.verdict with
  | Relim.Pipeline.Budget_exceeded _ -> ()
  | v ->
    Alcotest.failf "expected budget verdict, got %a" Relim.Pipeline.pp_verdict
      v);
  assert_span_count events "pipeline.run" 1;
  assert_span_count events "pipeline.iteration" 2;
  (* iteration spans are siblings of depth 1, never nested *)
  List.iter
    (fun e ->
      if e.Obs.Span.name = "pipeline.iteration" then
        check int "iteration depth" 1 e.Obs.Span.depth)
    events;
  assert_counter metrics "pipeline.iterations" 2;
  assert_counter metrics "pipeline.runs" 1;
  check int "counter matches trace entries"
    (List.length r.Relim.Pipeline.trace)
    (Helpers.counter_value metrics "pipeline.iterations")

let test_pipeline_resume_replays_one_iteration () =
  let r = pipeline_run () in
  let ck = Relim.Pipeline.checkpoint r in
  let resumed, events, metrics =
    with_trace (fun () ->
        Relim.Pipeline.resume ~max_iterations:2 ~max_labels:60 ck)
  in
  (match resumed with
  | Error e -> Alcotest.failf "resume: %s" (Fault.Error.to_string e)
  | Ok r2 ->
    check bool "same verdict class" true
      (match r2.Relim.Pipeline.verdict with
      | Relim.Pipeline.Budget_exceeded _ -> true
      | _ -> false));
  (* only the interrupted iteration re-executes — completed steps are
     not replayed as spans *)
  assert_span_count events "pipeline.iteration" 1;
  assert_counter metrics "pipeline.resumes" 1;
  assert_counter metrics "pipeline.runs" 0

let test_volume_probe_counters () =
  let g = Graph.Builder.cycle 30 in
  let o, events, metrics =
    with_trace (fun () ->
        Volume.Probe.run ~problem:(Lcl.Zoo.free_choice ~delta:2)
          (Volume.Algorithms.constant_choice ~name:"const" 0)
          g)
  in
  assert_counter metrics "volume.queries" 30;
  check int "probes counter = outcome total"
    o.Volume.Probe.total_probes
    (Helpers.counter_value metrics "volume.probes");
  assert_span_count events "probe.run" 1;
  assert_span_count events "probe.simulate" 1;
  assert_span_count events "probe.verify" 1;
  (* the resilient entry runs the same core, spans included *)
  let o, events, metrics =
    with_trace (fun () ->
        Volume.Probe.run_resilient ~problem:(Lcl.Zoo.free_choice ~delta:2)
          (Volume.Algorithms.constant_choice ~name:"const" 0)
          g)
  in
  (match o with
  | Error e -> Alcotest.failf "resilient: %s" (Fault.Error.to_string e)
  | Ok _ -> ());
  assert_counter metrics "volume.queries" 30;
  assert_counter metrics "volume.nodes_ok" 30;
  assert_span_count events "probe.run_resilient" 1;
  assert_span_count events "probe.simulate" 1;
  assert_span_count events "probe.verify" 1

let test_fault_compile_counters () =
  let g = Graph.Builder.cycle 20 in
  let plan = Fault.Plan.make ~crashed:[| 3 |] () in
  let r, events, metrics =
    with_trace (fun () -> Fault.Inject.compile plan g)
  in
  check bool "compiles" true (Result.is_ok r);
  assert_counter metrics "fault.plans_compiled" 1;
  assert_span_count events "fault.compile" 1

let test_classify_counters () =
  let _, events, metrics =
    with_trace (fun () ->
        Classify.Tree_gap.run ~max_iterations:2 ~max_labels:60
          (Lcl.Zoo.coloring ~k:3 ~delta:2))
  in
  assert_counter metrics "classify.runs" 1;
  assert_span_count events "classify.run" 1;
  (* budget verdict: no validation pass *)
  assert_counter metrics "classify.validations" 0;
  assert_span_count events "classify.validate" 0

(* -- properties --------------------------------------------------------- *)

let jsonl_span_names jsonl =
  String.split_on_char '\n' jsonl
  |> List.filter (fun l -> l <> "")
  |> List.filter_map (fun l ->
         match Fault.Json.of_string l with
         | j when Fault.Json.member "ev" j = Some (Fault.Json.String "span") ->
           Option.bind (Fault.Json.member "name" j) Fault.Json.to_str
         | _ -> None
         | exception Fault.Json.Parse_error _ -> None)

let chrome_span_names json =
  match Fault.Json.of_string json with
  | j -> (
    match Fault.Json.member "traceEvents" j with
    | Some (Fault.Json.List evs) ->
      List.filter_map
        (fun e -> Option.bind (Fault.Json.member "name" e) Fault.Json.to_str)
        evs
    | _ -> [])
  | exception Fault.Json.Parse_error _ -> []

let prop_exporters_agree =
  QCheck.Test.make ~count:20 ~name:"chrome and jsonl agree on spans"
    Helpers.seed_arb (fun seed ->
      let n = 16 + (seed mod 48) in
      let _, events, metrics =
        with_trace (fun () -> cycle_workload ~n ~seed ())
      in
      let from_chrome =
        List.sort compare (chrome_span_names (Obs.Export.chrome events))
      in
      let from_jsonl =
        List.sort compare (jsonl_span_names (Obs.Export.jsonl events metrics))
      in
      from_chrome = from_jsonl && List.length from_chrome = List.length events)

(* Workload metrics must not depend on the worker count; only the
   "parallel." engine-topology family may (and does) differ. Memo off:
   cross-domain cache races make hit counts first-writer-wins. *)
let prop_metrics_domain_independent =
  QCheck.Test.make ~count:15 ~name:"metrics identical across domain counts"
    Helpers.seed_arb (fun seed ->
      let n = 24 + (seed mod 40) in
      let snapshot domains =
        let _, _, metrics =
          with_trace (fun () -> cycle_workload ~domains ~n ~seed ())
        in
        List.filter
          (fun (name, _) ->
            not (String.length name >= 9 && String.sub name 0 9 = "parallel."))
          metrics
        |> Obs.Export.jsonl []
      in
      snapshot 1 = snapshot 4)

let suites =
  [
    ( "obs-span",
      [
        Alcotest.test_case "nesting" `Quick test_span_nesting;
        Alcotest.test_case "exception safety" `Quick
          test_span_exception_safety;
        Alcotest.test_case "timestamps ordered" `Quick
          test_span_timestamps_ordered;
        Alcotest.test_case "disabled no-op" `Quick test_span_disabled_noop;
        Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "wraparound accounting" `Quick
          test_wraparound_accounting;
        Alcotest.test_case "multi-domain merge" `Quick test_multi_domain_merge;
        Alcotest.test_case "multi-domain jsonl deterministic" `Quick
          test_multi_domain_deterministic_jsonl;
      ] );
    ( "obs-metrics",
      [
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "disabled no-op" `Quick test_metrics_disabled_noop;
        Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
        Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        Alcotest.test_case "reset zeroes" `Quick test_reset_zeroes;
      ] );
    ( "obs-export",
      [
        Alcotest.test_case "chrome parses" `Quick test_chrome_parses;
        Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
        Alcotest.test_case "jsonl byte-stable" `Quick test_jsonl_byte_stable;
        Alcotest.test_case "summary contents" `Quick test_summary_contents;
      ] );
    ( "obs-trace-shape",
      [
        Alcotest.test_case "memoized re-run recomputes nothing" `Quick
          test_memo_rerun_no_recomputation;
        Alcotest.test_case "resilient empty plan" `Quick
          test_resilient_empty_plan_shape;
        Alcotest.test_case "pipeline iteration spans" `Quick
          test_pipeline_iteration_spans;
        Alcotest.test_case "resume replays one iteration" `Quick
          test_pipeline_resume_replays_one_iteration;
        Alcotest.test_case "volume probe counters" `Quick
          test_volume_probe_counters;
        Alcotest.test_case "fault compile counters" `Quick
          test_fault_compile_counters;
        Alcotest.test_case "classify counters" `Quick test_classify_counters;
        Alcotest.test_case "spans independent of n" `Quick
          test_spans_independent_of_n;
      ] );
    Helpers.qsuite "obs-properties"
      [ prop_exporters_agree; prop_metrics_domain_independent ];
  ]
