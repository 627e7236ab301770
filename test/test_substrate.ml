(* Differential tests of the CSR graph substrate against the frozen
   seed representation ([Seed_ref]). Random graphs — including
   self-loops and the side-1 torus dimensions that crashed PR 1's
   code — are built twice from the same edge list, and everything
   observable must agree: accessors, edge lists, BFS, extracted balls
   (pooled and fresh), fingerprint equivalence classes, and full
   runner labelings across domain counts and memoization. *)

open Alcotest

(* -- random graph specs -------------------------------------------------- *)

(* A random sparse graph spec from a seed: node count, edge list in a
   random order (ports follow list order on both representations),
   occasional self-loops. *)
let random_spec seed =
  let rng = Helpers.rng_of_seed seed in
  let n = 1 + Util.Prng.int rng 18 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    if Util.Prng.int rng 6 = 0 then edges := (u, u) :: !edges;
    for v = u + 1 to n - 1 do
      if Util.Prng.int rng (max 2 n) < 2 then edges := (u, v) :: !edges
    done
  done;
  let arr = Array.of_list !edges in
  Util.Prng.shuffle rng arr;
  let edges = Array.to_list arr in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let delta = max 1 (Array.fold_left max 0 deg) in
  (n, delta, edges)

(* Build the same spec as CSR and as the seed reference, then push the
   same random inputs and edge tags through both mutation APIs. *)
let build_pair ?(inputs = true) seed =
  let n, delta, edges = random_spec seed in
  let g = Graph.of_edges ~self_loops:true ~n ~delta edges in
  let r = Seed_ref.of_edges ~self_loops:true ~n ~delta edges in
  let rng = Helpers.rng_of_seed (seed lxor 0x5eed) in
  for v = 0 to n - 1 do
    for p = 0 to Graph.degree g v - 1 do
      if inputs then begin
        let x = Util.Prng.int rng 5 in
        Graph.set_input g v p x;
        Seed_ref.set_input r v p x
      end;
      let t = Util.Prng.int rng 4 in
      Graph.set_edge_tag g v p t;
      Seed_ref.set_edge_tag r v p t
    done
  done;
  (g, r)

(* -- accessor agreement -------------------------------------------------- *)

let prop_accessors_agree =
  QCheck.Test.make ~name:"CSR accessors = seed representation" ~count:200
    Helpers.seed_arb (fun seed ->
      let g, r = build_pair seed in
      let n = Graph.n g in
      n = Seed_ref.n r
      && Graph.delta g = Seed_ref.delta r
      && Graph.num_edges g = Seed_ref.num_edges r
      && Graph.edges g = Seed_ref.edges r
      && List.for_all
           (fun v ->
             Graph.degree g v = Seed_ref.degree r v
             && List.for_all
                  (fun p ->
                    Graph.neighbor g v p = Seed_ref.neighbor r v p
                    && Graph.neighbor_port g v p = Seed_ref.neighbor_port r v p
                    && Graph.input g v p = Seed_ref.input r v p
                    && Graph.edge_tag g v p = Seed_ref.edge_tag r v p)
                  (List.init (Graph.degree g v) Fun.id))
           (List.init n Fun.id)
      && List.for_all
           (fun v ->
             Graph.bfs_distances g v = Seed_ref.bfs_distances r v)
           [ 0; n / 2; n - 1 ])

(* -- ball agreement (fresh, pooled, restricted-noop) --------------------- *)

let same_ball (a : Graph.Ball.t) (b : Graph.Ball.t) =
  Graph.Ball.equal_deterministic a b && a.Graph.Ball.rand = b.Graph.Ball.rand

let prop_balls_agree =
  QCheck.Test.make ~name:"CSR balls = seed balls (fresh, pooled)" ~count:100
    Helpers.seed_arb (fun seed ->
      let g, r = build_pair seed in
      let n = Graph.n g in
      let rng = Helpers.rng_of_seed (seed + 7) in
      let ids = Graph.Ids.random rng n in
      let rand = Array.init n (fun _ -> Util.Prng.next_int64 rng) in
      List.for_all
        (fun v ->
          List.for_all
            (fun radius ->
              let want, want_hosts =
                Seed_ref.extract r ~ids ~rand ~n_declared:n v ~radius
              in
              let fresh, fresh_hosts =
                Graph.Ball.extract g ~ids ~rand ~n_declared:n v ~radius
              in
              (* compare the pooled view before the pool is reused *)
              let pooled, pooled_hosts =
                Graph.Ball.extract ~reuse:true g ~ids ~rand ~n_declared:n v
                  ~radius
              in
              let nothing_blocked _ _ = false in
              let restr, restr_hosts, degraded =
                Graph.Ball.extract_restricted g ~blocked:nothing_blocked ~ids
                  ~rand ~n_declared:n v ~radius
              in
              same_ball want fresh
              && want_hosts = fresh_hosts
              && same_ball want pooled
              && want_hosts = pooled_hosts
              && same_ball want restr
              && want_hosts = restr_hosts
              && not degraded)
            [ 0; 1; 2; 3 ])
        (List.init n Fun.id))

(* The packed fingerprint must induce exactly the Marshal key's
   equivalence relation — that is what "unchanged memo semantics"
   means. Checked pairwise over all balls of a random graph. *)
let prop_fingerprint_equivalence =
  QCheck.Test.make
    ~name:"packed fingerprint ~ Marshal fingerprint (same classes)"
    ~count:100 Helpers.seed_arb (fun seed ->
      let g, _ = build_pair seed in
      let n = Graph.n g in
      let rng = Helpers.rng_of_seed (seed + 13) in
      let ids = Graph.Ids.random rng n in
      let rand = Array.init n (fun _ -> Util.Prng.next_int64 rng) in
      let balls =
        List.init n (fun v ->
            fst (Graph.Ball.extract g ~ids ~rand ~n_declared:n v ~radius:2))
      in
      let packed = List.map Graph.Ball.fingerprint balls in
      let marshal = List.map Seed_ref.fingerprint balls in
      List.for_all2
        (fun p1 m1 ->
          List.for_all2
            (fun p2 m2 -> (p1 = p2) = (m1 = m2))
            packed marshal)
        packed marshal)

(* The fused probe key (assembled from BFS scratch, no view
   materialized) must reproduce the extracted ball's key word for
   word — it is what the memoizing runner actually probes with. *)
let prop_fused_key_agrees =
  QCheck.Test.make
    ~name:"fingerprint_view_of = fingerprint_view . extract" ~count:150
    Helpers.seed_arb (fun seed ->
      let g, _ = build_pair seed in
      let n = Graph.n g in
      let rng = Helpers.rng_of_seed (seed + 29) in
      let ids = Graph.Ids.random rng n in
      let rand = Array.init n (fun _ -> Util.Prng.next_int64 rng) in
      List.for_all
        (fun radius ->
          List.for_all
            (fun v ->
              let fused =
                let kv =
                  Graph.Ball.fingerprint_view_of g ~ids ~n_declared:n v ~radius
                in
                ( Array.sub kv.Graph.Ball.kv_words 0 kv.Graph.Ball.kv_len,
                  kv.Graph.Ball.kv_hash )
              in
              let from_ball =
                let ball, _ =
                  Graph.Ball.extract g ~ids ~rand ~n_declared:n v ~radius
                in
                let kv = Graph.Ball.fingerprint_view ball in
                ( Array.sub kv.Graph.Ball.kv_words 0 kv.Graph.Ball.kv_len,
                  kv.Graph.Ball.kv_hash )
              in
              fused = from_ball)
            (List.init n Fun.id))
        [ 0; 1; 2; 3 ])

(* -- full runner differential -------------------------------------------- *)

(* A deterministic order-invariant probe: outputs depend on topology,
   ports, distances, degrees, inputs, and tags — never on identifier
   magnitudes or randomness — so memoization is sound and labels land
   in no problem's alphabet (violations are ignored on purpose). *)
let probe_algo =
  Local.Algorithm.constant ~name:"substrate-probe" ~radius:2 (fun b ->
      let open Graph.Ball in
      let row_sum row =
        Array.fold_left
          (fun acc c ->
            match c with
            | None -> (acc * 5) + 1
            | Some (w, q) -> (acc * 5) + (b.degree.(w) * 3) + q)
          0 row
      in
      Array.init b.degree.(0) (fun p ->
          (match b.adj.(0).(p) with
          | None -> 17 + b.edge_tag.(0).(p)
          | Some (w, q) ->
            (b.degree.(w) * 31) + (q * 7) + b.dist.(w) + row_sum b.adj.(w)
            + b.input.(w).(if q < b.degree.(w) then q else 0))
          land max_int))

let prop_runner_labelings_agree =
  QCheck.Test.make
    ~name:"Runner.run on CSR = seed runner (domains 1/4, memo on/off)"
    ~count:40 Helpers.seed_arb (fun seed ->
      (* inputs stay unset: the runner verifies against [problem] and
         set inputs would have to index its input alphabet *)
      let g, r = build_pair ~inputs:false seed in
      let problem = Lcl.Zoo.trivial ~delta:(Graph.delta g) in
      let want = Seed_ref.run ~seed ~algo:probe_algo r in
      let want_memo = Seed_ref.run ~seed ~memo:true ~algo:probe_algo r in
      let run ~domains ~memo =
        Local.Runner.run ~seed ~domains ~memo ~problem probe_algo g
      in
      let plain1 = run ~domains:1 ~memo:false in
      let plain4 = run ~domains:4 ~memo:false in
      let memo1 = run ~domains:1 ~memo:true in
      let memo4 = run ~domains:4 ~memo:true in
      want.Seed_ref.labels = plain1.Local.Runner.labeling
      && want.Seed_ref.labels = plain4.Local.Runner.labeling
      && want.Seed_ref.labels = memo1.Local.Runner.labeling
      && want.Seed_ref.labels = memo4.Local.Runner.labeling
      (* cache semantics: sequential CSR memo sees the seed's exact
         hit count and distinct-view count *)
      && memo1.Local.Runner.stats.Local.Runner.cache_hits
         = want_memo.Seed_ref.hits
      && memo1.Local.Runner.stats.Local.Runner.distinct_views
         = want_memo.Seed_ref.distinct
      && memo4.Local.Runner.stats.Local.Runner.distinct_views
         = want_memo.Seed_ref.distinct)

(* -- the PR 1 crash cases: tori with side-1 dimensions ------------------- *)

let torus_case dims () =
  let t = Grid.Problems.mark_tag_inputs (Grid.Torus.make dims) in
  let g = Grid.Torus.graph t in
  check bool "well-formed" true (Graph.Check.well_formed g);
  (* self-loop half-edges must point back with mutual ports *)
  for v = 0 to Graph.n g - 1 do
    for p = 0 to Graph.degree g v - 1 do
      let u = Graph.neighbor g v p and q = Graph.neighbor_port g v p in
      check int "opposite is mutual" p (Graph.neighbor_port g u q);
      check int "opposite returns" v (Graph.neighbor g u q)
    done
  done;
  let problem = Grid.Problems.dimension_echo ~d:(Array.length dims) in
  let run ~domains ~memo =
    Local.Runner.run ~seed:11 ~domains ~memo ~problem
      Grid.Algorithms.dimension_echo g
  in
  let a = run ~domains:1 ~memo:false in
  let b = run ~domains:4 ~memo:true in
  check int "echo violations (domains 1)" 0
    (List.length a.Local.Runner.violations);
  check int "echo violations (domains 4, memo)" 0
    (List.length b.Local.Runner.violations);
  check bool "labelings identical across engines" true
    (a.Local.Runner.labeling = b.Local.Runner.labeling)

(* The memoized dimension echo on a tagged torus under product ids —
   the path every memoized grid experiment funnels through — against
   the seed runner: identical labelings at domains 1 and 4, and the
   seed's memo semantics. Hits are compared on one domain only: at 4,
   two domains may both miss a view before either inserts it. *)
let test_torus_echo_memo_vs_seed () =
  let torus = Grid.Problems.mark_tag_inputs (Grid.Torus.make [| 16; 16 |]) in
  let g = Grid.Torus.graph torus in
  let ids = (Grid.Torus.prod_ids torus).Grid.Torus.packed in
  let algo = Grid.Algorithms.dimension_echo in
  let want = Seed_ref.run ~ids ~memo:true ~algo (Seed_ref.of_graph g) in
  let run domains =
    Local.Runner.run ~ids:(`Fixed ids) ~domains ~workers:1 ~memo:true
      ~problem:(Grid.Problems.dimension_echo ~d:2) algo g
  in
  let one = run 1 and four = run 4 in
  check int "no violations" 0 (List.length one.Local.Runner.violations);
  check bool "seed hits some views" true (want.Seed_ref.hits > 0);
  List.iter
    (fun (label, (o : Local.Runner.outcome)) ->
      check bool (label ^ ": labels = seed") true
        (o.Local.Runner.labeling = want.Seed_ref.labels);
      check int (label ^ ": distinct views = seed") want.Seed_ref.distinct
        o.Local.Runner.stats.Local.Runner.distinct_views)
    [ ("domains 1", one); ("domains 4", four) ];
  check int "domains 1: hits = seed" want.Seed_ref.hits
    one.Local.Runner.stats.Local.Runner.cache_hits

let suites =
  [
    ( "substrate.torus",
      [
        test_case "torus [1,3]" `Quick (torus_case [| 1; 3 |]);
        test_case "torus [5,1]" `Quick (torus_case [| 5; 1 |]);
        test_case "torus [1,3,3]" `Quick (torus_case [| 1; 3; 3 |]);
        test_case "torus [3,4]" `Quick (torus_case [| 3; 4 |]);
        test_case "memoized echo = seed runner" `Quick
          test_torus_echo_memo_vs_seed;
      ] );
    Helpers.qsuite "substrate.diff"
      [
        prop_accessors_agree;
        prop_balls_agree;
        prop_fingerprint_equivalence;
        prop_fused_key_agrees;
        prop_runner_labelings_agree;
      ];
  ]
