(* Tests for the fault-injection subsystem: plan serialization and
   generation, restricted view extraction, resilient LOCAL/VOLUME
   execution (including the determinism-across-worker-counts and
   replay-from-JSON properties), retry policies, and pipeline
   deadline/checkpoint/resume. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* -- plans -------------------------------------------------------------- *)

let test_plan_normalization () =
  let p =
    Fault.Plan.make ~crashed:[| 5; 2; 5 |]
      ~severed:[| (4, 1); (1, 4); (2, 3) |]
      ~corrupt_ids:[| (1, 10); (1, 20) |]
      ()
  in
  check (Alcotest.array int) "crashed sorted+dedup" [| 2; 5 |]
    p.Fault.Plan.crashed;
  check int "severed dedup" 2 (Array.length p.Fault.Plan.severed);
  check bool "severed normalized" true (p.Fault.Plan.severed.(0) = (1, 4));
  (* first binding wins *)
  check int "id binding" 10 (snd p.Fault.Plan.corrupt_ids.(0));
  check int "one id binding" 1 (Array.length p.Fault.Plan.corrupt_ids);
  check bool "empty is empty" true (Fault.Plan.is_empty Fault.Plan.empty);
  check bool "nonempty" false (Fault.Plan.is_empty p)

let test_plan_json_roundtrip () =
  List.iter
    (fun seed ->
      let g = Graph.Builder.random_tree (Util.Prng.create ~seed) ~delta:3 40 in
      let spec =
        Fault.Plan.spec ~crash:0.1 ~sever:0.1 ~corrupt:0.1 ~flip:0.2
          ~probe:0.05 ()
      in
      let p = Fault.Plan.generate ~label:"rt" ~seed ~spec g in
      match Fault.Plan.of_string (Fault.Plan.to_string p) with
      | Ok q -> check bool "roundtrip" true (p = q)
      | Error e -> Alcotest.failf "roundtrip failed: %s" (Fault.Error.to_string e))
    [ 1; 2; 3; 17; 255 ]

let test_plan_generate_deterministic () =
  let g = Graph.Builder.cycle 60 in
  let spec = Fault.Plan.spec ~crash:0.2 ~sever:0.2 ()  in
  let p1 = Fault.Plan.generate ~seed:9 ~spec g in
  let p2 = Fault.Plan.generate ~seed:9 ~spec g in
  let p3 = Fault.Plan.generate ~seed:10 ~spec g in
  check bool "same seed same plan" true (p1 = p2);
  check bool "different seed different plan" false (p1 = p3)

let test_plan_validate () =
  let p = Fault.Plan.make ~crashed:[| 99 |] () in
  (match Fault.Plan.validate p ~n:50 with
  | Error e -> check Alcotest.string "F301" "F301" e.Fault.Error.code
  | Ok () -> Alcotest.fail "out-of-range crash must be rejected");
  check bool "in range ok" true (Fault.Plan.validate p ~n:100 = Ok ())

let test_plan_compose () =
  let a = Fault.Plan.make ~label:"a" ~crashed:[| 1 |] ~corrupt_ids:[| (0, 7) |] () in
  let b = Fault.Plan.make ~label:"b" ~crashed:[| 2 |] ~corrupt_ids:[| (0, 9) |] () in
  let c = Fault.Plan.compose a b in
  check (Alcotest.array int) "union crashes" [| 1; 2 |] c.Fault.Plan.crashed;
  check Alcotest.string "first label wins" "a" c.Fault.Plan.label;
  check int "first binding wins" 7 (snd c.Fault.Plan.corrupt_ids.(0))

(* -- restricted extraction --------------------------------------------- *)

(* degraded=false must mean "identical to the pristine view" *)
let prop_restricted_flag_exact =
  QCheck.Test.make ~name:"extract_restricted degraded flag is exact" ~count:60
    Helpers.seed_arb
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let n = 20 + Util.Prng.int rng 30 in
      let g = Graph.Builder.random_tree rng ~delta:3 n in
      let spec = Fault.Plan.spec ~sever:0.15 ~crash:0.05 () in
      let plan = Fault.Plan.generate ~seed ~spec g in
      let compiled =
        match Fault.Inject.compile plan g with
        | Ok c -> c
        | Error e -> QCheck.Test.fail_report (Fault.Error.to_string e)
      in
      let ids = Graph.Ids.sequential n in
      let rand = Array.init n (fun i -> Int64.of_int (i * 77)) in
      let radius = 2 in
      List.for_all
        (fun v ->
          let pristine, _ =
            Graph.Ball.extract g ~ids ~rand ~n_declared:n v ~radius
          in
          let restricted, _, degraded =
            Graph.Ball.extract_restricted g
              ~blocked:(Fault.Inject.is_blocked compiled) ~ids ~rand
              ~n_declared:n v ~radius
          in
          if degraded then true
          else Graph.Ball.equal_deterministic pristine restricted
               && pristine.Graph.Ball.rand = restricted.Graph.Ball.rand)
        (List.init n Fun.id))

(* -- resilient LOCAL runs ---------------------------------------------- *)

let mis_problem = Lcl.Zoo.mis ~delta:2

let run_mis ?(domains = 1) ?workers ?(retries = 0) plan g =
  match
    Local.Runner.run_resilient ~seed:11 ~domains ?workers ~plan ~retries
      ~problem:mis_problem Local.Mis.algorithm g
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "run_resilient: %s" (Fault.Error.to_string e)

(* [run] is the empty-plan projection of the resilient engine: the
   record policy must change nothing but the statuses it adds *)
let test_empty_plan_matches_plain_run () =
  let g = Graph.Builder.oriented_cycle 48 in
  List.iter
    (fun workers ->
      let o = run_mis ~workers Fault.Plan.empty g in
      let plain =
        Local.Runner.run ~seed:11 ~domains:1 ~workers ~problem:mis_problem
          Local.Mis.algorithm g
      in
      check bool "same labeling" true
        (o.Local.Runner.partial = plain.Local.Runner.labeling);
      let rs = o.Local.Runner.r_stats and ps = plain.Local.Runner.stats in
      check int "same balls" ps.Local.Runner.balls_extracted
        rs.Local.Runner.balls_extracted;
      check int "same cache hits" ps.Local.Runner.cache_hits
        rs.Local.Runner.cache_hits;
      check int "same distinct views" ps.Local.Runner.distinct_views
        rs.Local.Runner.distinct_views;
      check int "all ok" 48 o.Local.Runner.report.Local.Runner.ok_nodes;
      check int "no violations" 0
        (List.length o.Local.Runner.healthy_violations))
    [ 1; 3 ]

(* What the record policy costs when no fault is planned: an
   empty-plan [run_resilient] of the torus echo allocates at most 4n
   words more than [run] — the copied ids, the copied randomness, the
   status array and the crash table — plus a constant. Allocation is
   counted rather than timed, so the bound is the same on every host;
   a per-node cost on the record path (one small tuple per node is
   4n words) breaks it at either size. *)
let test_empty_plan_allocation () =
  let slack = 300 in
  List.iter
    (fun side ->
      let torus =
        Grid.Problems.mark_tag_inputs (Grid.Torus.make [| side; side |])
      in
      let g = Grid.Torus.graph torus in
      let n = Graph.n g in
      let ids = `Fixed (Grid.Torus.prod_ids torus).Grid.Torus.packed in
      let problem = Grid.Problems.dimension_echo ~d:2 in
      let algo = Grid.Algorithms.dimension_echo in
      let plain () =
        Local.Runner.run ~ids ~domains:1 ~workers:1 ~problem algo g
      in
      let resilient () =
        Local.Runner.run_resilient ~ids ~domains:1 ~workers:1
          ~plan:Fault.Plan.empty ~problem algo g
      in
      (* warm the per-domain view pool both paths reuse *)
      ignore (plain ());
      ignore (resilient ());
      let extra =
        Helpers.allocated_words resilient - Helpers.allocated_words plain
      in
      check bool
        (Printf.sprintf "n=%d: %d words over run, bound 4n + %d" n extra slack)
        true
        (extra <= (4 * n) + slack))
    [ 24; 48 ]

let test_all_crashed () =
  let g = Graph.Builder.cycle 10 in
  let plan = Fault.Plan.make ~crashed:(Array.init 10 Fun.id) () in
  let o = run_mis plan g in
  check int "all crashed" 10 o.Local.Runner.report.Local.Runner.crashed_nodes;
  check bool "no output rows" true
    (Array.for_all (fun row -> row = [||]) o.Local.Runner.partial);
  check int "empty healthy graph has no violations" 0
    (List.length o.Local.Runner.healthy_violations)

let test_crash_degrades_gracefully () =
  let g = Graph.Builder.oriented_cycle 60 in
  let plan = Fault.Plan.make ~crashed:[| 7; 30 |] ~severed:[| (50, 51) |] () in
  let o = run_mis plan g in
  let r = o.Local.Runner.report in
  check int "crashed" 2 r.Local.Runner.crashed_nodes;
  check bool "someone starved" true (r.Local.Runner.starved_nodes > 0);
  check int "nobody errored" 0 r.Local.Runner.errored_nodes;
  check int "severed live" 1 r.Local.Runner.severed_edges;
  (* MIS is verified on the healthy subgraph only — and holds there *)
  check int "no healthy violations" 0
    (List.length o.Local.Runner.healthy_violations);
  check bool "succeeds under plan" true
    (Local.Runner.succeeds ~seed:11 ~plan ~problem:mis_problem
       Local.Mis.algorithm g)

(* the two acceptance properties: bit-identical partial outcomes at any
   worker count, and via a JSON round-trip of the plan *)
let prop_resilient_domain_independent =
  QCheck.Test.make
    ~name:"resilient run bit-identical at any worker count, plan via JSON"
    ~count:40 Helpers.seed_arb
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let n = 24 + Util.Prng.int rng 40 in
      let g = Graph.Builder.oriented_cycle n in
      let spec = Fault.Plan.spec ~crash:0.08 ~sever:0.08 ~corrupt:0.05 ~flip:0.1 () in
      let plan = Fault.Plan.generate ~seed ~spec g in
      let replayed =
        match Fault.Plan.of_string (Fault.Plan.to_string plan) with
        | Ok p -> p
        | Error e -> QCheck.Test.fail_report (Fault.Error.to_string e)
      in
      let a = run_mis ~domains:1 plan g in
      let b = run_mis ~domains:2 replayed g in
      let c = run_mis ~domains:4 replayed g in
      a.Local.Runner.partial = b.Local.Runner.partial
      && b.Local.Runner.partial = c.Local.Runner.partial
      && a.Local.Runner.report.Local.Runner.statuses
         = b.Local.Runner.report.Local.Runner.statuses
      && b.Local.Runner.report.Local.Runner.statuses
         = c.Local.Runner.report.Local.Runner.statuses
      && a.Local.Runner.healthy_violations = b.Local.Runner.healthy_violations
      && b.Local.Runner.healthy_violations = c.Local.Runner.healthy_violations)

(* a labeling that is wrong on the surviving subgraph must be reported,
   and in host coordinates *)
let test_healthy_verification_catches_real_violations () =
  let g = Graph.Builder.cycle 12 in
  let problem = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  let always_0 =
    Local.Algorithm.constant ~name:"always-0" ~radius:0 (fun ball ->
        Array.make ball.Graph.Ball.degree.(0) 0)
  in
  let plan = Fault.Plan.make ~crashed:[| 0 |] () in
  match
    Local.Runner.run_resilient ~seed:3 ~plan ~problem always_0 g
  with
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  | Ok o ->
    (* everyone outputs color 0: every surviving edge is monochromatic *)
    check bool "violations found" true (o.Local.Runner.healthy_violations <> []);
    List.iter
      (function
        | Lcl.Verify.Bad_node v | Lcl.Verify.Bad_edge (v, _)
        | Lcl.Verify.Bad_g (v, _) ->
          check bool "host coordinates" true (v >= 0 && v < 12 && v <> 0))
      o.Local.Runner.healthy_violations

exception Flaky of int

let test_retries_fix_randomness_sensitive_failures () =
  (* fails whenever the node's low randomness bits are nonzero: retries
     remix the randomness purely, so enough attempts succeed *)
  let flaky =
    {
      Local.Algorithm.name = "flaky";
      radius = (fun ~n:_ -> 0);
      run =
        (fun ball ->
          if Int64.logand ball.Graph.Ball.rand.(0) 3L <> 0L then
            raise (Flaky ball.Graph.Ball.id.(0))
          else Array.make ball.Graph.Ball.degree.(0) 0);
    }
  in
  let g = Graph.Builder.cycle 32 in
  let problem = Lcl.Zoo.free_choice ~delta:2 in
  let no_retry =
    match
      Local.Runner.run_resilient ~seed:5 ~problem flaky g
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  in
  check bool "some nodes errored without retries" true
    (no_retry.Local.Runner.report.Local.Runner.errored_nodes > 0);
  (* an algorithm that raised is F103, carrying the node index *)
  Array.iter
    (function
      | Fault.Errored e ->
        check Alcotest.string "F103" "F103" e.Fault.Error.code;
        check bool "errors carry node context" true (e.Fault.Error.node <> None)
      | _ -> ())
    no_retry.Local.Runner.report.Local.Runner.statuses;
  (* the raise policy of [run] lets the algorithm's own exception out *)
  check bool "run re-raises the algorithm's exception" true
    (match
       Local.Runner.run ~seed:5 ~domains:1 ~workers:1 ~problem flaky g
     with
    | exception Flaky _ -> true
    | _ -> false);
  match
    Local.Runner.run_resilient ~seed:5 ~retries:40 ~problem flaky g
  with
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  | Ok o ->
    check int "retries eliminate errors" 0
      o.Local.Runner.report.Local.Runner.errored_nodes;
    check bool "retries were counted" true
      (o.Local.Runner.report.Local.Runner.retries_used > 0)

let test_empirical_failure_under_plan () =
  let g = Graph.Builder.oriented_cycle 30 in
  let plan = Fault.Plan.make ~crashed:[| 4 |] () in
  let p =
    Local.Runner.empirical_local_failure ~trials:10 ~plan
      ~problem:mis_problem Local.Mis.algorithm g
  in
  check bool "degradation reported in [0,1]" true (p >= 0. && p <= 1.);
  (* one rule with and without a plan: an output that breaks g at every
     half-edge fails each node and each edge once per trial — never an
     edge once per violation *)
  let problem =
    Lcl.Parse.of_string
      "problem g-only delta 2\n\
       in: a\n\
       out: c0 c1\n\
       node 1: c0 | c1\n\
       node 2: c0 c0 | c0 c1 | c1 c1\n\
       edge: c0 c1 | c1 c1\n\
       g a: c1\n"
  in
  let zero =
    Local.Algorithm.constant ~name:"zero" ~radius:0 (fun ball ->
        Array.make ball.Graph.Ball.degree.(0) 0)
  in
  let g = Graph.Builder.cycle 12 in
  let failure plan =
    Local.Runner.empirical_local_failure ~trials:4 ?plan ~problem zero g
  in
  check (Alcotest.float 0.) "no plan" 1.0 (failure None);
  check (Alcotest.float 0.) "empty plan" 1.0 (failure (Some Fault.Plan.empty))

(* -- resilient VOLUME runs --------------------------------------------- *)

let test_volume_crash_and_probe_faults () =
  let g = Graph.Builder.cycle 20 in
  let problem = Lcl.Zoo.free_choice ~delta:2 in
  let algo = Volume.Algorithms.constant_choice ~name:"const" 0 in
  (* const never probes: only the crash shows up *)
  let plan = Fault.Plan.make ~crashed:[| 3 |] ~probe_faults:[| (5, 1) |] () in
  match Volume.Probe.run_resilient ~plan ~problem algo g with
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  | Ok o ->
    check int "crashed" 1 o.Volume.Probe.report.Volume.Probe.crashed_nodes;
    check int "const needs no probes: nothing starves" 0
      o.Volume.Probe.report.Volume.Probe.starved_nodes;
    check int "no violations" 0 (List.length o.Volume.Probe.healthy_violations)

let test_volume_walker_starves_on_probe_fault () =
  let g =
    Lcl.Zoo_oriented.mark_orientation_inputs (Graph.Builder.oriented_cycle 16)
  in
  let problem = Lcl.Zoo_oriented.coloring ~k:2 in
  let algo = Volume.Algorithms.two_coloring_walker in
  (* lose node 2's first probe: its walk cannot even start *)
  let plan = Fault.Plan.make ~probe_faults:[| (2, 1) |] () in
  match Volume.Probe.run_resilient ~plan ~problem algo g with
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  | Ok o ->
    (match o.Volume.Probe.report.Volume.Probe.statuses.(2) with
    | Fault.Starved -> ()
    | s -> Alcotest.failf "expected Starved, got %s" (Fault.Inject.status_string s));
    check int "others unaffected" 1
      o.Volume.Probe.report.Volume.Probe.starved_nodes;
    check int "no violations on survivors" 0
      (List.length o.Volume.Probe.healthy_violations)

let test_volume_crash_starves_walker () =
  let g =
    Lcl.Zoo_oriented.mark_orientation_inputs (Graph.Builder.oriented_cycle 16)
  in
  let problem = Lcl.Zoo_oriented.coloring ~k:2 in
  let algo = Volume.Algorithms.two_coloring_walker in
  let plan = Fault.Plan.make ~crashed:[| 7 |] () in
  match Volume.Probe.run_resilient ~plan ~problem algo g with
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  | Ok o ->
    let r = o.Volume.Probe.report in
    check int "one crashed" 1 r.Volume.Probe.crashed_nodes;
    (* the walker visits the whole cycle: everyone else starves at the
       blocked edges around the crash *)
    check int "everyone else starves" 15 r.Volume.Probe.starved_nodes;
    check int "errored none" 0 r.Volume.Probe.errored_nodes

let test_volume_budget_becomes_error () =
  (* a prober that walks forever on a too-small budget *)
  let runaway =
    {
      Volume.Probe.name = "runaway";
      budget = (fun ~n:_ -> 3);
      decide = (fun ~n:_ _tuples -> Volume.Probe.Probe (0, 0));
    }
  in
  let g = Graph.Builder.cycle 8 in
  let problem = Lcl.Zoo.free_choice ~delta:2 in
  match Volume.Probe.run_resilient ~problem runaway g with
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  | Ok o ->
    check int "every query errored" 8
      o.Volume.Probe.report.Volume.Probe.errored_nodes;
    Array.iter
      (function
        | Fault.Errored e ->
          check Alcotest.string "F201" "F201" e.Fault.Error.code
        | s -> Alcotest.failf "expected Errored, got %s" (Fault.Inject.status_string s))
      o.Volume.Probe.report.Volume.Probe.statuses

(* [Probe.run] is the empty-plan projection of the resilient engine,
   in process and sharded *)
let test_volume_empty_plan_matches_plain_run () =
  let g =
    Lcl.Zoo_oriented.mark_orientation_inputs (Graph.Builder.oriented_cycle 40)
  in
  let problem = Lcl.Zoo_oriented.coloring ~k:3 in
  let algo = Volume.Algorithms.cv_coloring in
  List.iter
    (fun workers ->
      let plain = Volume.Probe.run ~domains:1 ~workers ~problem algo g in
      match
        Volume.Probe.run_resilient ~domains:1 ~workers ~plan:Fault.Plan.empty
          ~problem algo g
      with
      | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
      | Ok o ->
        check bool "same labeling" true
          (o.Volume.Probe.partial = plain.Volume.Probe.labeling);
        check bool "same violations" true
          (o.Volume.Probe.healthy_violations = plain.Volume.Probe.violations);
        check int "same max probes" plain.Volume.Probe.max_probes
          o.Volume.Probe.r_max_probes;
        check int "same total probes" plain.Volume.Probe.total_probes
          o.Volume.Probe.r_total_probes;
        check bool "every status Ok" true
          (Array.for_all
             (fun s -> s = Fault.Ok)
             o.Volume.Probe.report.Volume.Probe.statuses))
    [ 1; 3 ]

(* -- pipeline deadline / checkpoint / resume --------------------------- *)

let verdict_key = function
  | Relim.Pipeline.Constant { rounds; _ } -> ("constant", rounds, 0)
  | Relim.Pipeline.Lower_bound_log_star { fixed_point_at } ->
    ("log*", fixed_point_at, 0)
  | Relim.Pipeline.Budget_exceeded { at_iteration; labels } ->
    ("budget", at_iteration, labels)
  | Relim.Pipeline.Deadline_exceeded { at_iteration; _ } ->
    ("deadline", at_iteration, 0)

let trace_key (r : Relim.Pipeline.result) =
  List.map
    (fun (e : Relim.Pipeline.trace_entry) ->
      (e.iteration, e.labels, e.zero_round))
    r.Relim.Pipeline.trace

let test_deadline_zero () =
  let p = Lcl.Zoo.mis ~delta:2 in
  let r = Relim.Pipeline.run ~deadline:0.0 p in
  match r.Relim.Pipeline.verdict with
  | Relim.Pipeline.Deadline_exceeded { at_iteration; _ } ->
    check int "interrupted before iteration 0" 0 at_iteration;
    check int "no trace yet" 0 (List.length r.Relim.Pipeline.trace)
  | v -> Alcotest.failf "expected deadline, got %a" Relim.Pipeline.pp_verdict v

(* interrupted + resumed must reach the uninterrupted verdict,
   verdict-for-verdict, on every zoo problem that finishes fast *)
let test_checkpoint_resume_equals_uninterrupted () =
  let max_iterations = 2 and max_labels = 80 in
  List.iter
    (fun (name, p) ->
      let full = Relim.Pipeline.run ~max_iterations ~max_labels p in
      (* interrupt after the budget of a single iteration … *)
      let cut = Relim.Pipeline.run ~max_iterations:0 ~max_labels p in
      let ck = Relim.Pipeline.checkpoint cut in
      (* … and resume under the full budgets *)
      match Relim.Pipeline.resume ~max_iterations ~max_labels ck with
      | Error e -> Alcotest.failf "%s: resume failed: %s" name (Fault.Error.to_string e)
      | Ok resumed ->
        check
          (Alcotest.triple Alcotest.string int int)
          (name ^ " verdict")
          (verdict_key full.Relim.Pipeline.verdict)
          (verdict_key resumed.Relim.Pipeline.verdict);
        check bool (name ^ " trace") true (trace_key full = trace_key resumed))
    [
      ("trivial", Lcl.Zoo.trivial ~delta:3);
      ("free-choice", Lcl.Zoo.free_choice ~delta:2);
      ("edge-orientation-d2", Lcl.Zoo.edge_orientation ~delta:2);
      ("mis", Lcl.Zoo.mis ~delta:2);
      ("sinkless-orientation", Lcl.Zoo.sinkless_orientation ~delta:3);
      ("3-coloring", Lcl.Zoo.coloring ~k:3 ~delta:2);
    ]

let test_resume_constant_algo_still_works () =
  (* a resumed Constant verdict must re-derive a runnable algorithm *)
  let p = Lcl.Zoo.edge_orientation ~delta:3 in
  let full = Relim.Pipeline.run p in
  let ck = Relim.Pipeline.checkpoint full in
  match Relim.Pipeline.resume ck with
  | Error e -> Alcotest.failf "resume failed: %s" (Fault.Error.to_string e)
  | Ok r -> (
    match r.Relim.Pipeline.verdict with
    | Relim.Pipeline.Constant { algo; _ } ->
      let wrapped =
        {
          Local.Algorithm.name = "resumed-lift";
          radius = (fun ~n:_ -> algo.Relim.Lift.radius);
          run = algo.Relim.Lift.run;
        }
      in
      let g =
        Graph.Builder.random_forest (Util.Prng.create ~seed:23) ~delta:3
          ~trees:2 40
      in
      check bool "resumed algorithm solves the problem" true
        (Local.Runner.succeeds ~seed:23 ~problem:p wrapped g)
    | v ->
      Alcotest.failf "expected Constant, got %a" Relim.Pipeline.pp_verdict v)

let test_corrupt_checkpoint_rejected () =
  let reject s =
    match Relim.Pipeline.resume s with
    | Error e -> check Alcotest.string "F302" "F302" e.Fault.Error.code
    | Ok _ -> Alcotest.fail "corrupt checkpoint must be rejected"
  in
  reject "not a checkpoint";
  reject "LCLCKPT1:zz-not-hex";
  reject "LCLCKPT1:00ff12"

(* -- error plumbing ---------------------------------------------------- *)

let test_worker_error_becomes_fault_error () =
  let e =
    Fault.Error.of_exn
      (Util.Parallel.Worker_error
         { lo = 0; hi = 50; index = 13; error = Failure "boom" })
  in
  check Alcotest.string "F101" "F101" e.Fault.Error.code;
  check bool "node carried" true (e.Fault.Error.node = Some 13);
  check bool "range carried" true (e.Fault.Error.range = Some (0, 50))

let test_diagnostic_bridge () =
  let e = Fault.Error.f ~node:3 ~code:"F103" "algo exploded" in
  let d = Analysis.Diagnostic.of_fault_error ~file:"x.lcl" e in
  check Alcotest.string "code preserved" "F103" d.Analysis.Diagnostic.code;
  check bool "severity error" true
    (d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error);
  check bool "context folded in" true
    (String.length d.Analysis.Diagnostic.message
     > String.length "algo exploded")

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "normalization" `Quick test_plan_normalization;
        Alcotest.test_case "json roundtrip" `Quick test_plan_json_roundtrip;
        Alcotest.test_case "generate deterministic" `Quick
          test_plan_generate_deterministic;
        Alcotest.test_case "validate" `Quick test_plan_validate;
        Alcotest.test_case "compose" `Quick test_plan_compose;
      ] );
    ( "fault.local",
      [
        Alcotest.test_case "empty plan = plain run" `Quick
          test_empty_plan_matches_plain_run;
        Alcotest.test_case "all crashed" `Quick test_all_crashed;
        Alcotest.test_case "graceful crash" `Quick test_crash_degrades_gracefully;
        Alcotest.test_case "healthy verification" `Quick
          test_healthy_verification_catches_real_violations;
        Alcotest.test_case "retries" `Quick
          test_retries_fix_randomness_sensitive_failures;
        Alcotest.test_case "empirical under plan" `Quick
          test_empirical_failure_under_plan;
        Alcotest.test_case "empty plan allocation" `Quick
          test_empty_plan_allocation;
      ] );
    ( "fault.volume",
      [
        Alcotest.test_case "crash + unused probe fault" `Quick
          test_volume_crash_and_probe_faults;
        Alcotest.test_case "probe fault starves" `Quick
          test_volume_walker_starves_on_probe_fault;
        Alcotest.test_case "crash starves walker" `Quick
          test_volume_crash_starves_walker;
        Alcotest.test_case "budget becomes F201" `Quick
          test_volume_budget_becomes_error;
        Alcotest.test_case "empty plan = plain run" `Quick
          test_volume_empty_plan_matches_plain_run;
      ] );
    ( "fault.pipeline",
      [
        Alcotest.test_case "deadline 0" `Quick test_deadline_zero;
        Alcotest.test_case "checkpoint/resume = uninterrupted" `Slow
          test_checkpoint_resume_equals_uninterrupted;
        Alcotest.test_case "resumed Constant runs" `Quick
          test_resume_constant_algo_still_works;
        Alcotest.test_case "corrupt checkpoint" `Quick
          test_corrupt_checkpoint_rejected;
      ] );
    ( "fault.errors",
      [
        Alcotest.test_case "worker error context" `Quick
          test_worker_error_becomes_fault_error;
        Alcotest.test_case "diagnostic bridge" `Quick test_diagnostic_bridge;
      ] );
    Helpers.qsuite "fault.prop"
      [ prop_restricted_flag_exact; prop_resilient_domain_independent ];
  ]
