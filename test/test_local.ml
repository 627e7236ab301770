(* Tests for the LOCAL simulator and the classic Θ(log* n) baselines. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* -- Cole–Vishkin machinery ------------------------------------------ *)

let test_cv_step () =
  (* own=0b1010, succ=0b1000: lowest differing bit is 1, own bit there
     is 1 -> 2*1+1 = 3 *)
  check int "cv_step" 3 (Local.Cole_vishkin.cv_step ~own:10 ~succ:8);
  Alcotest.check_raises "equal colors rejected"
    (Invalid_argument "Cole_vishkin.cv_step: equal colors") (fun () ->
      ignore (Local.Cole_vishkin.cv_step ~own:5 ~succ:5))

let prop_cv_step_preserves_properness =
  QCheck.Test.make ~name:"cv_step keeps chains proper" ~count:300
    QCheck.(pair (int_range 0 100000) (int_range 0 100000))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      (* simulate two adjacent nodes u -> v (v = u's successor) with a
         common continuation w; u and v must stay distinct *)
      let c = (b + 1) mod 99991 in
      let c = if c = b then c + 1 else c in
      let a' = Local.Cole_vishkin.cv_step ~own:a ~succ:b in
      let b' = Local.Cole_vishkin.cv_step ~own:b ~succ:c in
      a' <> b')

let test_cv_iterations_growth () =
  (* Θ(log* n): tiny and very slowly growing *)
  let r16 = Local.Cole_vishkin.cv_iterations 16 in
  let r64k = Local.Cole_vishkin.cv_iterations 65536 in
  let rbig = Local.Cole_vishkin.cv_iterations (1 lsl 60) in
  check bool "grows" true (r16 <= r64k && r64k <= rbig);
  check bool "tiny" true (rbig <= 8)

let run_coloring n builder =
  let g = builder n in
  let problem = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  Local.Runner.run ~seed:(n * 31) ~problem Local.Cole_vishkin.three_coloring g

let test_cv_three_coloring_cycles () =
  List.iter
    (fun n ->
      let o = run_coloring n Graph.Builder.oriented_cycle in
      check int (Printf.sprintf "C%d valid" n) 0 (List.length o.Local.Runner.violations))
    [ 3; 5; 8; 17; 64; 129 ]

let test_cv_three_coloring_paths () =
  List.iter
    (fun n ->
      let o = run_coloring n Graph.Builder.oriented_path in
      check int (Printf.sprintf "P%d valid" n) 0 (List.length o.Local.Runner.violations))
    [ 2; 3; 9; 33; 100 ]

let prop_cv_coloring_random_sizes =
  QCheck.Test.make ~name:"CV 3-coloring valid on all cycle sizes" ~count:40
    QCheck.(pair Helpers.seed_arb (int_range 3 200))
    (fun (seed, n) ->
      let g = Graph.Builder.oriented_cycle n in
      let problem = Lcl.Zoo.coloring ~k:3 ~delta:2 in
      Local.Runner.succeeds ~seed ~problem Local.Cole_vishkin.three_coloring g)

(* -- MIS and matching ------------------------------------------------- *)

let prop_mis_valid =
  QCheck.Test.make ~name:"CV MIS valid on oriented cycles and paths"
    ~count:40
    QCheck.(triple Helpers.seed_arb (int_range 3 120) bool)
    (fun (seed, n, use_cycle) ->
      let g =
        if use_cycle then Graph.Builder.oriented_cycle n
        else Graph.Builder.oriented_path (max 2 n)
      in
      Local.Runner.succeeds ~seed ~problem:(Lcl.Zoo.mis ~delta:2)
        Local.Mis.algorithm g)

let prop_matching_valid =
  QCheck.Test.make ~name:"CV maximal matching valid on oriented cycles/paths"
    ~count:40
    QCheck.(triple Helpers.seed_arb (int_range 3 120) bool)
    (fun (seed, n, use_cycle) ->
      let g =
        if use_cycle then Graph.Builder.oriented_cycle n
        else Graph.Builder.oriented_path (max 2 n)
      in
      Local.Runner.succeeds ~seed ~problem:(Lcl.Zoo.maximal_matching ~delta:2)
        Local.Matching.algorithm g)

(* -- Luby randomized MIS ----------------------------------------------- *)

let test_luby_mis_on_trees () =
  (* randomized: whp-correct; fixed seeds keep the test deterministic *)
  List.iter
    (fun (seed, n) ->
      let g = Helpers.random_tree seed ~delta:3 n in
      check bool
        (Printf.sprintf "luby valid on tree n=%d" n)
        true
        (Local.Runner.succeeds ~seed ~problem:(Lcl.Zoo.mis ~delta:3)
           Local.Luby.algorithm g))
    [ (3, 10); (7, 40); (11, 120) ]

let test_luby_mis_on_cycles () =
  let g = Graph.Builder.cycle 60 in
  check bool "luby valid on C60" true
    (Local.Runner.succeeds ~seed:5 ~problem:(Lcl.Zoo.mis ~delta:2)
       Local.Luby.algorithm g)

let test_luby_failure_decreases_with_rounds () =
  (* truncating the algorithm raises the empirical local failure rate:
     the qualitative shape behind Theorem 3.4's quantitative account *)
  let g = Graph.Builder.cycle 40 in
  let truncated k =
    let a = Local.Luby.algorithm in
    {
      a with
      Local.Algorithm.name = Printf.sprintf "luby-%d" k;
      radius = (fun ~n:_ -> k);
    }
  in
  let rate k =
    Local.Runner.empirical_local_failure ~trials:40
      ~problem:(Lcl.Zoo.mis ~delta:2) (truncated k) g
  in
  let full = Local.Luby.algorithm.Local.Algorithm.radius ~n:40 in
  check bool "truncated fails more" true (rate 2 > rate full);
  check bool "full run succeeds" true (rate full < 0.2)

let test_johansson_coloring () =
  List.iter
    (fun (seed, n, delta, build) ->
      let g = build () in
      check bool
        (Printf.sprintf "johansson valid n=%d delta=%d" n delta)
        true
        (Local.Runner.succeeds ~seed ~problem:(Lcl.Zoo.coloring ~k:(delta + 1) ~delta)
           (Local.Rand_coloring.algorithm ~delta) g))
    [
      (3, 30, 2, fun () -> Graph.Builder.cycle 30);
      (9, 50, 3, fun () -> Helpers.random_tree 9 ~delta:3 50);
      (4, 33, 3, fun () -> Graph.Builder.subdivided_clique ~base:4 ~subdivisions:5);
    ]

let test_subdivided_clique_structure () =
  let g = Graph.Builder.subdivided_clique ~base:4 ~subdivisions:5 in
  check bool "well-formed" true (Graph.Check.well_formed g);
  check bool "has cycles" false (Graph.is_forest g);
  (* girth = 3 * (subdivisions + 1) = 18 *)
  check bool "high girth" true (Graph.girth g = Some 18)

(* -- order invariance (Def. 2.7 / Thm. 2.11) -------------------------- *)

let constant_algorithm =
  Local.Algorithm.constant ~name:"const-A" ~radius:0 (fun ball ->
      Array.make ball.Graph.Ball.degree.(0) 0)

let test_order_invariance_check () =
  let g = Graph.Builder.oriented_cycle 24 in
  check bool "constant algo is order-invariant" true
    (Local.Order_invariant.check constant_algorithm g);
  (* Cole–Vishkin inspects identifier *bits*, not just their order *)
  check bool "CV is not order-invariant" false
    (Local.Order_invariant.check Local.Cole_vishkin.three_coloring g)

let test_order_invariant_speedup () =
  (* fooling a correct order-invariant constant-radius algorithm keeps
     it correct on larger graphs (Theorem 2.11's conclusion) *)
  let sped = Local.Order_invariant.speedup ~n0:16 constant_algorithm in
  let g = Graph.Builder.oriented_cycle 200 in
  check bool "still valid" true
    (Local.Runner.succeeds ~problem:(Lcl.Zoo.free_choice ~delta:2) sped g);
  check int "radius stays constant" 0 (sped.Local.Algorithm.radius ~n:1_000_000)

(* -- Lemma 3.3 forests ------------------------------------------------ *)

let test_forest_transfer_small_components () =
  (* tiny components: every node maps its component to the canonical
     brute-force solution *)
  let p = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  let algo =
    Local.Forest.for_forests ~problem:p
      (Local.Algorithm.constant ~name:"never-called" ~radius:0 (fun _ ->
           Alcotest.fail "tree algorithm should not run on tiny components"))
  in
  let g = Graph.of_edges ~n:7 ~delta:2 [ (0, 1); (1, 2); (3, 4); (5, 6) ] in
  check bool "valid coloring of tiny forest" true
    (Local.Runner.succeeds ~problem:p algo g)

let test_forest_transfer_large_component () =
  (* large path: the tree algorithm must be consulted *)
  let p = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  let algo = Local.Forest.for_forests ~problem:p Local.Cole_vishkin.three_coloring in
  let g = Graph.Builder.oriented_path 300 in
  check bool "valid on large path" true (Local.Runner.succeeds ~problem:p algo g)

(* -- shortcut graph (E3) ---------------------------------------------- *)

let test_shortcut_coloring () =
  List.iter
    (fun n_path ->
      let g, _ = Graph.Builder.shortcut_path n_path in
      let g = Lcl.Zoo_oriented.mark_shortcut_inputs g ~n_path in
      let p = Lcl.Zoo_oriented.path_coloring in
      let o = Local.Runner.run ~seed:n_path ~problem:p Local.Shortcut.path_coloring g in
      check int (Printf.sprintf "shortcut n=%d valid" n_path) 0
        (List.length o.Local.Runner.violations))
    [ 8; 32; 200 ]

let test_shortcut_radius_compression () =
  (* radius Θ(log log* n) instead of Θ(log* n): at feasible n the
     constants dominate, so compare growth — from n = 2^8 to n = 2^60
     the CV radius must grow strictly more than the shortcut radius *)
  let growth (a : Local.Algorithm.t) =
    a.Local.Algorithm.radius ~n:(1 lsl 60) - a.Local.Algorithm.radius ~n:(1 lsl 8)
  in
  let cv = growth Local.Cole_vishkin.three_coloring in
  let sc = growth Local.Shortcut.path_coloring in
  check bool "shortcut grows strictly slower" true (sc < cv)

(* -- synchronous runner ------------------------------------------------ *)

let test_sync_matches_ball_compilation () =
  (* the direct synchronous execution and the ball-compiled algorithm
     must produce identical outputs under the same ids/randomness *)
  let n = 60 in
  let g = Graph.Builder.oriented_cycle n in
  let rng = Util.Prng.create ~seed:99 in
  let ids = Graph.Ids.random rng n in
  let rand = Array.init n (fun _ -> Util.Prng.next_int64 rng) in
  let sync = Local.Sync.run ~ids ~rand Local.Cole_vishkin.spec g in
  let via_balls =
    Array.init n (fun v ->
        let ball, _ =
          Graph.Ball.extract g ~ids ~rand ~n_declared:n v
            ~radius:(Local.Cole_vishkin.three_coloring.Local.Algorithm.radius ~n)
        in
        Local.Cole_vishkin.three_coloring.Local.Algorithm.run ball)
  in
  check bool "identical outputs" true (sync.Local.Sync.outputs = via_balls)

let test_sync_congest_state_size () =
  (* CV keeps O(log n)-bit states: the marshalled size must stay tiny,
     the CONGEST-compatibility observation of [10] (Sec. 1.1) *)
  let g = Graph.Builder.oriented_cycle 300 in
  let o, violations =
    Local.Sync.run_and_verify ~problem:(Lcl.Zoo.coloring ~k:3 ~delta:2)
      Local.Cole_vishkin.spec g
  in
  check int "verified" 0 (List.length violations);
  check bool "states stay small" true (o.Local.Sync.max_state_bytes < 200)

let test_sync_luby_large () =
  (* the synchronous runner makes larger randomized runs cheap *)
  let g = Graph.Builder.cycle 2000 in
  let _, violations =
    Local.Sync.run_and_verify ~seed:3 ~problem:(Lcl.Zoo.mis ~delta:2)
      Local.Luby.spec g
  in
  check int "luby valid on C2000" 0 (List.length violations)

(* -- runner ----------------------------------------------------------- *)

let test_runner_rejects_bad_arity () =
  let bad =
    Local.Algorithm.constant ~name:"bad-arity" ~radius:0 (fun _ -> [| 0; 0; 0; 0 |])
  in
  let g = Graph.Builder.path 3 in
  let problem = Lcl.Zoo.trivial ~delta:2 in
  check bool "arity mismatch detected" true
    (match Local.Runner.run ~problem bad g with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* the record policy files it as F102 and never retries it: a wrong
     arity is a bug, not bad luck *)
  match Local.Runner.run_resilient ~retries:2 ~problem bad g with
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.Error.to_string e)
  | Ok o ->
    Array.iter
      (function
        | Fault.Errored e -> check Alcotest.string "F102" "F102" e.Fault.Error.code
        | s ->
          Alcotest.failf "expected Errored, got %s" (Fault.Inject.status_string s))
      o.Local.Runner.report.Local.Runner.statuses;
    check int "arity errors are not retried" 0
      o.Local.Runner.report.Local.Runner.retries_used

let test_empirical_failure_rate () =
  (* a random 0-round 3-coloring fails locally with substantial
     probability; empirical rate must reflect that *)
  let random_color =
    Local.Algorithm.constant ~name:"rand-color" ~radius:0 (fun ball ->
        let rng =
          Util.Prng.create ~seed:(Int64.to_int ball.Graph.Ball.rand.(0))
        in
        Array.make ball.Graph.Ball.degree.(0) (Util.Prng.int rng 3))
  in
  let g = Graph.Builder.cycle 12 in
  let rate =
    Local.Runner.empirical_local_failure ~trials:60
      ~problem:(Lcl.Zoo.coloring ~k:3 ~delta:2) random_color g
  in
  check bool "rate in (0,1)" true (rate > 0.05 && rate < 0.95)

let test_engine_bit_identical () =
  (* the parallel engine and the memo must never change a labeling:
     identical outcomes at 1, 2 and 4 domains, with and without memo *)
  let cyc = Graph.Builder.oriented_cycle 96 in
  let p = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  let base =
    Local.Runner.run ~seed:11 ~domains:1 ~problem:p
      Local.Cole_vishkin.three_coloring cyc
  in
  List.iter
    (fun d ->
      let o =
        Local.Runner.run ~seed:11 ~domains:d ~problem:p
          Local.Cole_vishkin.three_coloring cyc
      in
      check bool
        (Printf.sprintf "cv3 labeling identical at %d domains" d)
        true
        (o.Local.Runner.labeling = base.Local.Runner.labeling))
    [ 2; 4 ];
  let t = Grid.Problems.mark_tag_inputs (Grid.Torus.make [| 4; 4 |]) in
  let tg = Grid.Torus.graph t in
  let ids = `Fixed (Grid.Torus.prod_ids t).Grid.Torus.packed in
  let ep = Grid.Problems.dimension_echo ~d:2 in
  let b =
    Local.Runner.run ~ids ~domains:1 ~problem:ep Grid.Algorithms.dimension_echo
      tg
  in
  List.iter
    (fun (d, memo) ->
      let o =
        Local.Runner.run ~ids ~domains:d ~memo ~problem:ep
          Grid.Algorithms.dimension_echo tg
      in
      check bool
        (Printf.sprintf "echo identical (domains %d, memo %b)" d memo)
        true
        (o.Local.Runner.labeling = b.Local.Runner.labeling);
      check int
        (Printf.sprintf "no violations (domains %d, memo %b)" d memo)
        0
        (List.length o.Local.Runner.violations);
      if memo then begin
        check bool "memo cache hit" true
          (o.Local.Runner.stats.Local.Runner.cache_hits > 0);
        check bool "distinct views tracked" true
          (o.Local.Runner.stats.Local.Runner.distinct_views > 0)
      end)
    [ (1, true); (2, true); (4, true); (4, false) ]

let test_engine_stats () =
  let g = Graph.Builder.cycle 30 in
  let o =
    Local.Runner.run ~seed:1 ~domains:2
      ~problem:(Lcl.Zoo.coloring ~k:3 ~delta:2)
      Local.Cole_vishkin.three_coloring g
  in
  let s = o.Local.Runner.stats in
  check int "one ball per node" 30 s.Local.Runner.balls_extracted;
  check int "memo off: no cache" 0 s.Local.Runner.cache_hits;
  check int "domains recorded" 2 s.Local.Runner.domains_used;
  check bool "phase times consistent" true
    (s.Local.Runner.simulate_seconds >= 0.
    && s.Local.Runner.verify_seconds >= 0.
    && s.Local.Runner.total_seconds
       >= s.Local.Runner.simulate_seconds +. s.Local.Runner.verify_seconds)

let suites =
  [
    ( "local.unit",
      [
        Alcotest.test_case "cv_step" `Quick test_cv_step;
        Alcotest.test_case "cv iterations" `Quick test_cv_iterations_growth;
        Alcotest.test_case "3-coloring cycles" `Quick test_cv_three_coloring_cycles;
        Alcotest.test_case "3-coloring paths" `Quick test_cv_three_coloring_paths;
        Alcotest.test_case "luby on trees" `Quick test_luby_mis_on_trees;
        Alcotest.test_case "luby on cycles" `Quick test_luby_mis_on_cycles;
        Alcotest.test_case "luby failure vs rounds" `Quick test_luby_failure_decreases_with_rounds;
        Alcotest.test_case "johansson coloring" `Quick test_johansson_coloring;
        Alcotest.test_case "subdivided clique" `Quick test_subdivided_clique_structure;
        Alcotest.test_case "order invariance check" `Quick test_order_invariance_check;
        Alcotest.test_case "order-invariant speedup" `Quick test_order_invariant_speedup;
        Alcotest.test_case "forest transfer small" `Quick test_forest_transfer_small_components;
        Alcotest.test_case "forest transfer large" `Quick test_forest_transfer_large_component;
        Alcotest.test_case "shortcut coloring" `Quick test_shortcut_coloring;
        Alcotest.test_case "shortcut radius" `Quick test_shortcut_radius_compression;
        Alcotest.test_case "sync = ball compilation" `Quick test_sync_matches_ball_compilation;
        Alcotest.test_case "sync congest size" `Quick test_sync_congest_state_size;
        Alcotest.test_case "sync luby large" `Quick test_sync_luby_large;
        Alcotest.test_case "runner arity" `Quick test_runner_rejects_bad_arity;
        Alcotest.test_case "empirical failure" `Quick test_empirical_failure_rate;
        Alcotest.test_case "engine bit-identical" `Quick test_engine_bit_identical;
        Alcotest.test_case "engine stats" `Quick test_engine_stats;
      ] );
    Helpers.qsuite "local.prop"
      [
        prop_cv_step_preserves_properness;
        prop_cv_coloring_random_sizes;
        prop_mis_valid;
        prop_matching_valid;
      ];
  ]
