(* Tests for the LCL formalism: problems, verification, the zoo, the
   textual format. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let ms = Util.Multiset.of_list

(* -- Problem construction -------------------------------------------- *)

let test_make_validation () =
  let sigma_out = Lcl.Alphabet.of_names [ "a" ] in
  Alcotest.check_raises "wrong config size"
    (Invalid_argument "Problem.make: node configuration of wrong size")
    (fun () ->
      ignore
        (Lcl.Problem.make_input_free ~name:"bad" ~delta:2 ~sigma_out
           ~node_cfg:[| [ ms [ 0; 0 ] ]; [] |]
           ~edge_cfg:[ ms [ 0; 0 ] ]))

let test_membership () =
  let p = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  check bool "node {c,c}" true (Lcl.Problem.node_ok p (ms [ 1; 1 ]));
  check bool "node {c,c'}" false (Lcl.Problem.node_ok p (ms [ 0; 1 ]));
  check bool "edge distinct" true (Lcl.Problem.edge_ok p 0 2);
  check bool "edge equal" false (Lcl.Problem.edge_ok p 2 2);
  check bool "g allows" true (Lcl.Problem.g_allows p ~inp:0 ~out:2)

let test_prune () =
  (* a label missing from the edge constraint is unusable *)
  let sigma_out = Lcl.Alphabet.of_names [ "a"; "b" ] in
  let p =
    Lcl.Problem.make_input_free ~name:"prunable" ~delta:1 ~sigma_out
      ~node_cfg:[| [ ms [ 0 ]; ms [ 1 ] ] |]
      ~edge_cfg:[ ms [ 0; 0 ] ]
  in
  let q = Lcl.Problem.prune p in
  check int "one usable label" 1 (Lcl.Alphabet.size (Lcl.Problem.sigma_out q));
  check bool "kept the right one" true
    (Lcl.Alphabet.name (Lcl.Problem.sigma_out q) 0 = "a")

(* -- Verification ----------------------------------------------------- *)

let constant_labeling g l =
  Array.init (Graph.n g) (fun v -> Array.make (Graph.degree g v) l)

let test_verify_coloring () =
  let p = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  let g = Graph.Builder.path 4 in
  (* proper coloring 0,1,0,1 *)
  let good = Array.init 4 (fun v -> Array.make (Graph.degree g v) (v mod 2)) in
  check bool "valid" true (Lcl.Verify.is_valid p g good);
  (* all-same violates every edge *)
  let bad = constant_labeling g 0 in
  let violations = Lcl.Verify.violations p g bad in
  check int "three bad edges" 3 (List.length violations)

let test_verify_g_violation () =
  let p = Lcl.Zoo.echo_input ~delta:2 in
  let g = Graph.Builder.path 3 in
  Graph.set_all_inputs g 0;
  let wrong = constant_labeling g 1 in
  let violations = Lcl.Verify.violations p g wrong in
  check bool "g violations reported" true
    (List.exists (function Lcl.Verify.Bad_g _ -> true | _ -> false) violations);
  let right = constant_labeling g 0 in
  check bool "echo valid" true (Lcl.Verify.is_valid p g right)

let test_solvable_bruteforce () =
  let g5 = Graph.Builder.cycle 5 in
  let c3 = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  check bool "3-coloring C5" true (Lcl.Verify.solvable c3 g5 <> None);
  let c2 = Lcl.Zoo.coloring ~k:2 ~delta:2 in
  check bool "2-coloring C5 impossible" true (Lcl.Verify.solvable c2 g5 = None);
  let g6 = Graph.Builder.cycle 6 in
  check bool "2-coloring C6" true (Lcl.Verify.solvable c2 g6 <> None);
  (* the k=4 cyclic pattern is bipartite: even cycles only *)
  let p4 = Lcl.Zoo.period_pattern ~k:4 in
  check bool "period-4 on C6" true (Lcl.Verify.solvable p4 g6 <> None);
  check bool "period-4 on C5 impossible" true (Lcl.Verify.solvable p4 g5 = None);
  (* with unordered edges, k=3 degenerates to 3-coloring: C5 works *)
  let p3 = Lcl.Zoo.period_pattern ~k:3 in
  check bool "period-3 on C5 (= 3-coloring)" true (Lcl.Verify.solvable p3 g5 <> None)

let test_solvable_returns_valid () =
  let p = Lcl.Zoo.mis ~delta:3 in
  let g = Graph.Builder.complete_tree ~arity:2 10 in
  match Lcl.Verify.solvable p g with
  | None -> Alcotest.fail "MIS should be solvable on a tree"
  | Some labeling -> check bool "witness valid" true (Lcl.Verify.is_valid p g labeling)

(* -- Zoo sanity: every zoo problem admits solutions on its graphs ---- *)

let test_zoo_solvable_on_trees () =
  List.iter
    (fun (p, _) ->
      let g = Graph.Builder.complete_tree ~arity:2 7 in
      match Lcl.Verify.solvable p g with
      | Some l -> check bool (Lcl.Problem.name p ^ " witness valid") true (Lcl.Verify.is_valid p g l)
      | None -> Alcotest.fail (Lcl.Problem.name p ^ " unsolvable on tree"))
    (Lcl.Zoo.tree_zoo ~delta:3)

let test_zoo_solvable_on_cycles () =
  List.iter
    (fun (p, cls) ->
      let g = Graph.Builder.cycle 6 in
      match (Lcl.Verify.solvable p g, cls) with
      | Some l, _ -> check bool (Lcl.Problem.name p ^ " valid") true (Lcl.Verify.is_valid p g l)
      | None, _ -> Alcotest.fail (Lcl.Problem.name p ^ " unsolvable on C6"))
    (Lcl.Zoo.cycle_zoo)

let test_weak_2_coloring () =
  let p = Lcl.Zoo.weak_2_coloring ~delta:3 () in
  let tree = Graph.Builder.complete_tree ~arity:2 7 in
  check bool "solvable on a tree" true (Lcl.Verify.solvable p tree <> None);
  (match Lcl.Verify.solvable p tree with
  | Some l -> check bool "witness valid" true (Lcl.Verify.is_valid p tree l)
  | None -> ());
  (* a 2-node path: both constrained, must 2-color properly *)
  let p2 = Graph.Builder.path 2 in
  check bool "solvable on P2" true (Lcl.Verify.solvable p p2 <> None)

let test_sinkless_orientation () =
  let p = Lcl.Zoo.sinkless_orientation ~delta:3 in
  (* on a 3-regular-ish tree, orienting toward the leaves works *)
  let g = Graph.Builder.complete_tree ~arity:2 15 in
  check bool "solvable" true (Lcl.Verify.solvable p g <> None)

(* -- parse round trip ------------------------------------------------- *)

let test_parse_roundtrip () =
  List.iter
    (fun (p, _) ->
      let text = Lcl.Parse.to_string p in
      let q = Lcl.Parse.of_string text in
      check bool
        (Lcl.Problem.name p ^ " roundtrip")
        true
        (Lcl.Problem.equal_structure p q))
    (Lcl.Zoo.cycle_zoo @ Lcl.Zoo.tree_zoo ~delta:3)

let test_parse_with_inputs () =
  let p = Lcl.Zoo.forbidden_color_coloring in
  let q = Lcl.Parse.of_string (Lcl.Parse.to_string p) in
  check bool "roundtrip with g" true (Lcl.Problem.equal_structure p q)

let test_sample_problem_files () =
  let candidates =
    [ "problems"; "../problems"; "../../problems"; "../../../problems" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> () (* sample files not visible from this cwd *)
  | Some dir ->
    let entries = Sys.readdir dir in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".lcl" then begin
          let text = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
          let p = Lcl.Parse.of_string text in
          check bool (f ^ " roundtrip") true
            (Lcl.Problem.equal_structure p
               (Lcl.Parse.of_string (Lcl.Parse.to_string p)))
        end)
      entries

let test_parse_roundtrip_full_zoo () =
  (* every zoo constructor, at each delta the CLI exposes *)
  let all =
    [
      Lcl.Zoo.trivial ~delta:3;
      Lcl.Zoo.free_choice ~delta:3;
      Lcl.Zoo.edge_orientation ~delta:3;
      Lcl.Zoo.edge_orientation ~delta:2;
      Lcl.Zoo.echo_input ~delta:2;
      Lcl.Zoo.coloring ~k:3 ~delta:2;
      Lcl.Zoo.coloring ~k:2 ~delta:2;
      Lcl.Zoo.coloring ~k:4 ~delta:3;
      Lcl.Zoo.edge_coloring ~k:3 ~delta:2;
      Lcl.Zoo.mis ~delta:2;
      Lcl.Zoo.mis ~delta:3;
      Lcl.Zoo.maximal_matching ~delta:2;
      Lcl.Zoo.sinkless_orientation ~delta:3;
      Lcl.Zoo.consistent_orientation;
      Lcl.Zoo.period_pattern ~k:3;
      Lcl.Zoo.forbidden_color_coloring;
      Lcl.Zoo.weak_2_coloring ~delta:3 ();
      Lcl.Zoo.weak_2_coloring ~delta:2 ();
    ]
  in
  List.iter
    (fun p ->
      check bool
        (Lcl.Problem.name p ^ " full-zoo roundtrip")
        true
        (Lcl.Problem.equal_structure p
           (Lcl.Parse.of_string (Lcl.Parse.to_string p))))
    all

let test_fixture_files_roundtrip () =
  let candidates =
    [ "problems/fixtures"; "../problems/fixtures"; "../../problems/fixtures";
      "../../../problems/fixtures" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> ()
  | Some dir ->
    let entries = Sys.readdir dir in
    check bool "fixtures present" true (Array.length entries >= 2);
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".lcl" then begin
          let text =
            In_channel.with_open_text (Filename.concat dir f)
              In_channel.input_all
          in
          let p = Lcl.Parse.of_string text in
          check bool (f ^ " roundtrip") true
            (Lcl.Problem.equal_structure p
               (Lcl.Parse.of_string (Lcl.Parse.to_string p)))
        end)
      entries

let prop_parse_roundtrip_random =
  QCheck.Test.make ~name:"parse roundtrip on random problems" ~count:60
    Helpers.seed_arb
    (fun seed ->
      let rng = Helpers.rng_of_seed seed in
      let p = Helpers.random_problem rng ~k:3 ~delta:3 in
      Lcl.Problem.equal_structure p (Lcl.Parse.of_string (Lcl.Parse.to_string p)))

let expect_parse_error name ~line text =
  match Lcl.Parse.of_string text with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Lcl.Parse.Parse_error { line = got; _ } ->
    check (Alcotest.option Alcotest.int) (name ^ " line") line got

let test_parse_errors () =
  let bad = "out: a b\nedge: a b" in
  check bool "missing header rejected" true
    (match Lcl.Parse.of_string bad with
    | exception Lcl.Parse.Parse_error _ -> true
    | _ -> false)

let test_parse_error_lines () =
  expect_parse_error "unknown label" ~line:(Some 3)
    "problem p delta 1\nout: a\nnode 1: zzz\nedge: a a\n";
  expect_parse_error "unknown label in edge" ~line:(Some 4)
    "problem p delta 1\nout: a\nnode 1: a\nedge: a q\n";
  expect_parse_error "g without in:" ~line:(Some 5)
    "problem p delta 1\nout: a\nnode 1: a\nedge: a a\ng x: a\n";
  (* comment and blank lines still count toward line numbers *)
  expect_parse_error "comments counted" ~line:(Some 5)
    "# banner\n\nproblem p delta 1\nout: a\nnode 1: zzz\nedge: a a\n";
  check Alcotest.string "error rendering includes the line"
    "line 3: unknown label \"zzz\""
    (match
       Lcl.Parse.of_string "problem p delta 1\nout: a\nnode 1: zzz\nedge: a a\n"
     with
    | _ -> "no error"
    | exception Lcl.Parse.Parse_error { message; line } ->
      Lcl.Parse.error_to_string ~message ~line)

let test_parse_duplicate_sections () =
  expect_parse_error "duplicate header" ~line:(Some 2)
    "problem p delta 1\nproblem q delta 1\nout: a\nnode 1: a\nedge: a a\n";
  expect_parse_error "duplicate out" ~line:(Some 3)
    "problem p delta 1\nout: a\nout: a\nnode 1: a\nedge: a a\n";
  expect_parse_error "duplicate in" ~line:(Some 4)
    "problem p delta 1\nout: a\nin: i\nin: j\nnode 1: a\nedge: a a\ng i: a\n";
  expect_parse_error "duplicate edge" ~line:(Some 5)
    "problem p delta 1\nout: a\nnode 1: a\nedge: a a\nedge: a a\n";
  expect_parse_error "duplicate g row" ~line:(Some 7)
    "problem p delta 1\nout: a\nin: i\nnode 1: a\nedge: a a\ng i: a\ng i: a\n";
  (* two node rows for the same degree are an accumulation, not a dup *)
  let p =
    Lcl.Parse.of_string
      "problem p delta 1\nout: a b\nnode 1: a\nnode 1: b\nedge: a a | b b\n"
  in
  check Alcotest.int "node rows accumulate" 2 (Lcl.Problem.num_node_configs p)

let test_parse_spans () =
  let text =
    "# a linted file\n\nproblem p delta 2\nout: a b\nin: i\nnode 1: a | b\n\
     node 1: b\nnode 2: a a\nedge: a b\ng i: a b\n"
  in
  let _, spans = Lcl.Parse.of_string_with_spans text in
  check Alcotest.int "header line" 3 spans.Lcl.Parse.header.Lcl.Parse.line;
  check Alcotest.int "out line" 4 spans.Lcl.Parse.out_span.Lcl.Parse.line;
  check
    (Alcotest.option Alcotest.int)
    "in line" (Some 5)
    (Option.map
       (fun (s : Lcl.Parse.span) -> s.Lcl.Parse.line)
       spans.Lcl.Parse.in_span);
  (* first row for the degree wins *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "node spans"
    [ (1, 6); (2, 8) ]
    (List.map
       (fun (d, (s : Lcl.Parse.span)) -> (d, s.Lcl.Parse.line))
       spans.Lcl.Parse.node_spans);
  check Alcotest.int "edge line" 9 spans.Lcl.Parse.edge_span.Lcl.Parse.line;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "g spans"
    [ ("i", 10) ]
    (List.map
       (fun (x, (s : Lcl.Parse.span)) -> (x, s.Lcl.Parse.line))
       spans.Lcl.Parse.g_spans)

(* -- properties ------------------------------------------------------- *)

(* The brute-force solver and the verifier agree: any returned witness
   verifies; restricting to fewer labels never creates solutions. *)
let prop_solvable_witness_valid =
  QCheck.Test.make ~name:"random problems: solver witnesses verify" ~count:60
    QCheck.(pair Helpers.seed_arb (int_range 3 7))
    (fun (seed, n) ->
      let rng = Helpers.rng_of_seed seed in
      let p = Helpers.random_problem rng ~k:3 ~delta:2 in
      let g = Graph.Builder.path n in
      match Lcl.Verify.solvable p g with
      | None -> true
      | Some l -> Lcl.Verify.is_valid p g l)

let prop_coloring_valid_iff_proper =
  QCheck.Test.make ~name:"verifier matches hand-rolled properness check"
    ~count:60
    QCheck.(pair Helpers.seed_arb (int_range 3 8))
    (fun (seed, n) ->
      let rng = Helpers.rng_of_seed seed in
      let p = Lcl.Zoo.coloring ~k:3 ~delta:2 in
      let g = Graph.Builder.cycle n in
      let colors = Array.init n (fun _ -> Util.Prng.int rng 3) in
      let labeling =
        Array.init n (fun v -> Array.make (Graph.degree g v) colors.(v))
      in
      let proper =
        List.for_all (fun (u, v) -> colors.(u) <> colors.(v)) (Graph.edges g)
      in
      Lcl.Verify.is_valid p g labeling = proper)

let prop_prune_with_map_translates =
  QCheck.Test.make
    ~name:"prune_with_map: pruned solutions translate to original ones"
    ~count:60
    QCheck.(pair Helpers.seed_arb (int_range 3 7))
    (fun (seed, n) ->
      let rng = Helpers.rng_of_seed seed in
      let p = Helpers.random_problem rng ~k:3 ~delta:2 in
      let q, mapping = Lcl.Problem.prune_with_map p in
      let g = Graph.Builder.path n in
      match Lcl.Verify.solvable q g with
      | None -> true
      | Some labeling ->
        let translated =
          Array.map (Array.map (fun l -> mapping.(l))) labeling
        in
        Lcl.Verify.is_valid p g translated)

let test_alphabet_powerset () =
  let base = Lcl.Alphabet.of_names [ "x"; "y" ] in
  let pow, sets = Lcl.Alphabet.powerset base in
  Alcotest.(check int) "3 nonempty subsets" 3 (Lcl.Alphabet.size pow);
  Alcotest.(check int) "sets align" 3 (Array.length sets);
  Alcotest.(check string) "pair name" "{x,y}"
    (Lcl.Alphabet.name pow
       (Option.get (Lcl.Alphabet.find_opt pow "{x,y}")));
  Alcotest.(check bool) "denotes both" true
    (Util.Bitset.equal sets.(2) (Util.Bitset.of_list [ 0; 1 ]))

let test_failure_events () =
  let p = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  let g = Graph.Builder.path 3 in
  (* 0-1-2 colored 0,0,1: edge (0,1) fails, nodes fine *)
  let l = [| [| 0 |]; [| 0; 0 |]; [| 1 |] |] in
  let node_fail, edge_fail =
    Lcl.Verify.failure_events g (Lcl.Verify.violations p g l)
  in
  Alcotest.(check bool) "no node failures" true
    (Array.for_all not node_fail);
  Alcotest.(check int) "one failed edge" 1 (Hashtbl.length edge_fail);
  Alcotest.(check bool) "it is (0,1)" true (Hashtbl.mem edge_fail (0, 1))

let test_pretty_table () =
  let t =
    Util.Pretty.table ~header:[ "a"; "bb" ] [ [ "ccc"; "d" ]; [ "e" ] ]
  in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.(check bool) "no trailing spaces" true
    (List.for_all
       (fun l -> l = "" || l.[String.length l - 1] <> ' ')
       lines)

let suites =
  [
    ( "lcl.unit",
      [
        Alcotest.test_case "make validation" `Quick test_make_validation;
        Alcotest.test_case "membership" `Quick test_membership;
        Alcotest.test_case "prune" `Quick test_prune;
        Alcotest.test_case "verify coloring" `Quick test_verify_coloring;
        Alcotest.test_case "verify g" `Quick test_verify_g_violation;
        Alcotest.test_case "brute-force solvability" `Quick test_solvable_bruteforce;
        Alcotest.test_case "solver witness valid" `Quick test_solvable_returns_valid;
        Alcotest.test_case "tree zoo solvable" `Quick test_zoo_solvable_on_trees;
        Alcotest.test_case "cycle zoo solvable" `Quick test_zoo_solvable_on_cycles;
        Alcotest.test_case "sinkless orientation" `Quick test_sinkless_orientation;
        Alcotest.test_case "weak 2-coloring" `Quick test_weak_2_coloring;
        Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
        Alcotest.test_case "full-zoo roundtrip" `Quick
          test_parse_roundtrip_full_zoo;
        Alcotest.test_case "parse with inputs" `Quick test_parse_with_inputs;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "parse error lines" `Quick test_parse_error_lines;
        Alcotest.test_case "duplicate sections" `Quick
          test_parse_duplicate_sections;
        Alcotest.test_case "source spans" `Quick test_parse_spans;
        Alcotest.test_case "sample problem files" `Quick test_sample_problem_files;
        Alcotest.test_case "fixture files roundtrip" `Quick
          test_fixture_files_roundtrip;
      ] );
    ( "lcl.extra",
      [
        Alcotest.test_case "pretty table" `Quick test_pretty_table;
        Alcotest.test_case "alphabet powerset" `Quick test_alphabet_powerset;
        Alcotest.test_case "failure events" `Quick test_failure_events;
      ] );
    Helpers.qsuite "lcl.prop"
      [
        prop_solvable_witness_valid;
        prop_coloring_valid_iff_proper;
        prop_prune_with_map_translates;
        prop_parse_roundtrip_random;
      ];
  ]
