(* Tests for the [util] substrate (log*, PRNG, multisets, bitsets) and
   the [json] codec. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* -- Logstar --------------------------------------------------------- *)

let test_log2 () =
  check int "log2_ceil 1" 0 (Util.Logstar.log2_ceil 1);
  check int "log2_ceil 2" 1 (Util.Logstar.log2_ceil 2);
  check int "log2_ceil 3" 2 (Util.Logstar.log2_ceil 3);
  check int "log2_ceil 1024" 10 (Util.Logstar.log2_ceil 1024);
  check int "log2_ceil 1025" 11 (Util.Logstar.log2_ceil 1025);
  check int "log2_floor 1" 0 (Util.Logstar.log2_floor 1);
  check int "log2_floor 1023" 9 (Util.Logstar.log2_floor 1023);
  check int "log2_floor 1024" 10 (Util.Logstar.log2_floor 1024)

let test_log_star_values () =
  check int "log* 1" 0 (Util.Logstar.log_star 1);
  check int "log* 2" 1 (Util.Logstar.log_star 2);
  check int "log* 4" 2 (Util.Logstar.log_star 4);
  check int "log* 16" 3 (Util.Logstar.log_star 16);
  check int "log* 17" 4 (Util.Logstar.log_star 17);
  check int "log* 65536" 4 (Util.Logstar.log_star 65536);
  check int "log* 65537" 5 (Util.Logstar.log_star 65537);
  check int "log* max" 5 (Util.Logstar.log_star max_int)

let test_tower () =
  check int "tower 0" 1 (Util.Logstar.tower 0);
  check int "tower 4" 65536 (Util.Logstar.tower 4);
  Alcotest.check_raises "tower 5 overflows"
    (Invalid_argument "Logstar.tower: overflow (height > 4)") (fun () ->
      ignore (Util.Logstar.tower 5))

let prop_tower_inverse =
  QCheck.Test.make ~name:"log_star (tower k) = k" ~count:5
    QCheck.(int_bound 4)
    (fun k -> Util.Logstar.log_star (Util.Logstar.tower k) = k)

let prop_log_star_monotone =
  QCheck.Test.make ~name:"log* monotone" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let a, b = (min a b, max a b) in
      Util.Logstar.log_star a <= Util.Logstar.log_star b)

(* -- Prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Util.Prng.create ~seed:7 and b = Util.Prng.create ~seed:7 in
  for _ = 1 to 50 do
    check bool "same stream" true (Util.Prng.bits a = Util.Prng.bits b)
  done

let test_prng_split_independent () =
  let a = Util.Prng.create ~seed:7 in
  let child = Util.Prng.split a in
  let x = Util.Prng.bits child in
  (* recreating the parent and splitting again reproduces the child *)
  let a' = Util.Prng.create ~seed:7 in
  let child' = Util.Prng.split a' in
  check bool "split deterministic" true (x = Util.Prng.bits child')

let prop_int_in_range =
  QCheck.Test.make ~name:"Prng.int bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Util.Prng.create ~seed in
      let v = Util.Prng.int rng bound in
      v >= 0 && v < bound)

let prop_permutation =
  QCheck.Test.make ~name:"Prng.permutation is a permutation" ~count:100
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Util.Prng.create ~seed in
      let p = Util.Prng.permutation rng n in
      List.sort compare (Array.to_list p) = List.init n Fun.id)

let prop_sample_distinct =
  QCheck.Test.make ~name:"Prng.sample_distinct distinct & bounded" ~count:100
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, count) ->
      let rng = Util.Prng.create ~seed in
      let s = Util.Prng.sample_distinct rng ~bound:100 ~count in
      let l = Array.to_list s in
      List.length (List.sort_uniq compare l) = count
      && List.for_all (fun v -> v >= 0 && v < 100) l)

let test_prng_rejection_unbiased () =
  (* bound = 3·2^60 does not divide the 2^62 range of [bits]: the naive
     [bits mod bound] lands in [0, 2^60) with probability 1/2 (both
     quotient classes of the fold-over hit it); rejection sampling must
     give the uniform 1/3. *)
  let bound = 3 * (1 lsl 60) in
  let rng = Util.Prng.create ~seed:5 in
  let trials = 20_000 in
  let low = ref 0 in
  for _ = 1 to trials do
    if Util.Prng.int rng bound < 1 lsl 60 then incr low
  done;
  let freq = float_of_int !low /. float_of_int trials in
  check bool "P(v < 2^60) is 1/3, not the biased 1/2" true
    (freq > 0.30 && freq < 0.37)

(* -- Parallel -------------------------------------------------------- *)

let test_parallel_matches_sequential () =
  let f i = (i * 31) lxor (i lsr 2) in
  let expect = Array.init 1000 f in
  List.iter
    (fun d ->
      check bool
        (Printf.sprintf "init at %d domains = Array.init" d)
        true
        (Util.Parallel.init ~domains:d 1000 f = expect))
    [ 1; 2; 3; 4; 7 ];
  check bool "empty range" true (Util.Parallel.init ~domains:4 0 f = [||]);
  check bool "singleton range" true
    (Util.Parallel.init ~domains:4 1 f = [| f 0 |]);
  check bool "map" true
    (Util.Parallel.map ~domains:3 string_of_int [| 1; 2; 3 |]
    = [| "1"; "2"; "3" |])

exception Boom of int

let test_parallel_exception () =
  (* parallel path: wrapped with the failing index and owning chunk *)
  (match
     Util.Parallel.init ~domains:4 100 (fun i ->
         if i = 57 then raise (Boom 57) else i)
   with
  | _ -> Alcotest.fail "worker exception swallowed"
  | exception Util.Parallel.Worker_error { lo; hi; index; error } ->
    check int "failing index" 57 index;
    check bool "index inside chunk" true (lo <= 57 && 57 < hi);
    check bool "original exception carried" true (error = Boom 57)
  | exception e ->
    Alcotest.failf "expected Worker_error, got %s" (Printexc.to_string e));
  (* two failing workers: the lowest failing index wins *)
  (match
     Util.Parallel.init ~domains:4 100 (fun i ->
         if i = 20 || i = 80 then raise (Boom i) else i)
   with
  | _ -> Alcotest.fail "worker exception swallowed"
  | exception Util.Parallel.Worker_error { index; error; _ } ->
    check int "lowest failing index" 20 index;
    check bool "its exception" true (error = Boom 20)
  | exception e ->
    Alcotest.failf "expected Worker_error, got %s" (Printexc.to_string e));
  (* sequential path: raw propagation, caller keeps its backtrace *)
  Alcotest.check_raises "sequential exception raw" (Boom 3) (fun () ->
      ignore
        (Util.Parallel.init ~domains:1 10 (fun i ->
             if i = 3 then raise (Boom 3) else i)))

let test_parallel_env_default () =
  Helpers.with_env Util.Parallel.env_var "64" (fun () ->
      check int "env default capped at core count"
        (min 64 (Util.Parallel.recommended ()))
        (Util.Parallel.default_domains ()));
  Helpers.with_env Util.Parallel.env_var "garbage" (fun () ->
      check int "unparsable env falls back to 1" 1
        (Util.Parallel.default_domains ()));
  Helpers.with_env Util.Parallel.env_var "" (fun () ->
      check int "empty env falls back to 1" 1
        (Util.Parallel.default_domains ()))

(* -- Multiset -------------------------------------------------------- *)

let test_multiset_canonical () =
  let a = Util.Multiset.of_list [ 3; 1; 2; 1 ] in
  let b = Util.Multiset.of_list [ 1; 1; 2; 3 ] in
  check bool "order-insensitive" true (Util.Multiset.equal a b);
  check int "count 1" 2 (Util.Multiset.count 1 a);
  check bool "mem" true (Util.Multiset.mem 3 a);
  check bool "not mem" false (Util.Multiset.mem 4 a);
  check int "size" 4 (Util.Multiset.size a)

let test_multiset_ops () =
  let a = Util.Multiset.of_list [ 1; 2 ] in
  check bool "add" true
    (Util.Multiset.equal (Util.Multiset.add 0 a) (Util.Multiset.of_list [ 0; 1; 2 ]));
  (match Util.Multiset.remove_one 1 a with
  | Some r -> check bool "remove" true (Util.Multiset.equal r (Util.Multiset.of_list [ 2 ]))
  | None -> Alcotest.fail "remove_one failed");
  check bool "remove absent" true (Util.Multiset.remove_one 9 a = None);
  check bool "distinct" true (Util.Multiset.distinct (Util.Multiset.of_list [ 1; 1; 2 ]) = [ 1; 2 ])

let test_multiset_enumerate_count () =
  (* C(k + u - 1, k) multisets of size k over u elements *)
  let count u k =
    List.length (Util.Multiset.enumerate ~univ:(List.init u Fun.id) ~k)
  in
  check int "C(3+2-1,2)=6" 6 (count 3 2);
  check int "C(4+3-1,3)=20" 20 (count 4 3);
  check int "size 1" 5 (count 5 1)

let prop_enumerate_sorted_unique =
  QCheck.Test.make ~name:"enumerate yields distinct canonical multisets"
    ~count:50
    QCheck.(pair (int_range 1 5) (int_range 1 4))
    (fun (u, k) ->
      let l = Util.Multiset.enumerate ~univ:(List.init u Fun.id) ~k in
      List.length (List.sort_uniq Util.Multiset.compare l) = List.length l)

let test_selections () =
  let s = Util.Multiset.selections [ [ 1; 2 ]; [ 3 ]; [ 4; 5 ] ] in
  check int "product size" 4 (List.length s);
  check bool "contains 1,3,5" true (List.mem [ 1; 3; 5 ] s)

(* -- Bitset ---------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Util.Bitset.of_list [ 1; 5; 100 ] in
  check bool "mem 100" true (Util.Bitset.mem 100 s);
  check bool "not mem 99" false (Util.Bitset.mem 99 s);
  check int "cardinal" 3 (Util.Bitset.cardinal s);
  check bool "to_list" true (Util.Bitset.to_list s = [ 1; 5; 100 ]);
  check int "choose" 1 (Util.Bitset.choose s);
  check bool "remove" true
    (Util.Bitset.to_list (Util.Bitset.remove 100 s) = [ 1; 5 ])

let test_bitset_canonical () =
  (* removal that empties high words must compare equal to a set built
     small — the trim invariant *)
  let a = Util.Bitset.remove 100 (Util.Bitset.of_list [ 1; 100 ]) in
  let b = Util.Bitset.singleton 1 in
  check bool "canonical equal" true (Util.Bitset.equal a b);
  check bool "hashes equal" true (Hashtbl.hash a = Hashtbl.hash b)

let bitset_arb =
  QCheck.make
    ~print:(fun l -> QCheck.Print.list string_of_int l)
    QCheck.Gen.(list_size (int_bound 12) (int_bound 150))

let prop_union_inter_laws =
  QCheck.Test.make ~name:"bitset algebra laws" ~count:300
    QCheck.(pair bitset_arb bitset_arb)
    (fun (la, lb) ->
      let a = Util.Bitset.of_list la and b = Util.Bitset.of_list lb in
      let u = Util.Bitset.union a b and i = Util.Bitset.inter a b in
      Util.Bitset.subset a u && Util.Bitset.subset b u
      && Util.Bitset.subset i a && Util.Bitset.subset i b
      && Util.Bitset.equal (Util.Bitset.diff a b)
           (Util.Bitset.diff a i)
      && Util.Bitset.cardinal u + Util.Bitset.cardinal i
         = Util.Bitset.cardinal a + Util.Bitset.cardinal b)

let prop_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/to_list roundtrip" ~count:300
    bitset_arb
    (fun l ->
      let s = Util.Bitset.of_list l in
      Util.Bitset.to_list s = List.sort_uniq compare l)

(* [of_list]/[full] build into one mutable word array now; the fold of
   [add] is the executable spec they must still match *)
let fold_add xs =
  List.fold_left (fun acc i -> Util.Bitset.add i acc) Util.Bitset.empty xs

let prop_of_list_is_fold_of_add =
  QCheck.Test.make ~name:"bitset of_list = fold of add" ~count:300
    QCheck.(list_of_size Gen.(int_bound 40) (int_bound 400))
    (fun xs -> Util.Bitset.equal (Util.Bitset.of_list xs) (fold_add xs))

let prop_full_is_fold_of_add =
  QCheck.Test.make ~name:"bitset full = fold of add" ~count:100
    QCheck.(int_bound 300)
    (fun n ->
      Util.Bitset.equal (Util.Bitset.full n) (fold_add (List.init n Fun.id)))

let test_bitset_build_validation () =
  Alcotest.check_raises "of_list rejects negatives"
    (Invalid_argument "Bitset.of_list") (fun () ->
      ignore (Util.Bitset.of_list [ 3; -1 ]));
  (* word-boundary sizes: 62 ends a word, 63 starts the next *)
  List.iter
    (fun n ->
      check int (Printf.sprintf "full %d cardinal" n) n
        (Util.Bitset.cardinal (Util.Bitset.full n)))
    [ 0; 1; 61; 62; 63; 124; 125 ]

let test_subsets_nonempty () =
  check int "2^4-1 subsets" 15 (List.length (Util.Bitset.subsets_nonempty 4));
  check bool "all nonempty" true
    (List.for_all
       (fun s -> not (Util.Bitset.is_empty s))
       (Util.Bitset.subsets_nonempty 5))

(* -- Json ----------------------------------------------------------- *)

(* Trees over every leaf kind: strings and keys drawn from all 256 byte
   values, the int extremes, finite floats (integral ones of every
   magnitude, so >= 1e15 included), nested lists and objects. *)
let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 10) in
  let finite = map (fun x -> if Float.is_finite x then x else 0.5) float in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        oneofl [ Json.Int min_int; Json.Int max_int ];
        map (fun x -> Json.Float x) finite;
        map (fun i -> Json.Float (float_of_int i)) int;
        map (fun s -> Json.String s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           let children g = list_size (int_bound 4) g in
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (children (self (n / 3))));
               ( 1,
                 map (fun kvs -> Json.Obj kvs)
                   (children (pair str (self (n / 3)))) );
             ])

let arb_json =
  QCheck.make ~print:(fun v -> String.escaped (Json.to_string v)) json_gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_string inverts to_string" ~count:500 arb_json
    (fun v -> Json.of_string (Json.to_string v) = v)

let prop_json_prefixes =
  QCheck.Test.make ~name:"proper prefixes of containers raise Parse_error"
    ~count:200 arb_json (fun v ->
      List.for_all
        (fun doc ->
          let text = Json.to_string doc in
          List.for_all
            (fun len ->
              match Json.of_string (String.sub text 0 len) with
              | _ -> false
              | exception Json.Parse_error _ -> true)
            (List.init (String.length text) Fun.id))
        [ Json.List [ v ]; Json.Obj [ ("k", v) ] ])

let test_json_floats () =
  let text x = Json.to_string (Json.Float x) in
  List.iter
    (fun (x, want) -> check Alcotest.string want want (text x))
    [
      (3.0, "3.0"); (-0.0, "-0.0"); (0.1, "0.1"); (1e14, "100000000000000.0");
      (1e15, "1e+15"); (nan, "null"); (infinity, "null");
      (neg_infinity, "null");
    ];
  (* integral floats past 1e15 read back as floats, not ints *)
  List.iter
    (fun x ->
      check bool (text x) true (Json.of_string (text x) = Json.Float x))
    [ 1e15; 4e15 +. 1.; -1e17; 2. ** 62. ]

let suites =
  [
    ( "util.unit",
      [
        Alcotest.test_case "log2 values" `Quick test_log2;
        Alcotest.test_case "log* values" `Quick test_log_star_values;
        Alcotest.test_case "tower" `Quick test_tower;
        Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "prng split" `Quick test_prng_split_independent;
        Alcotest.test_case "prng rejection unbiased" `Quick
          test_prng_rejection_unbiased;
        Alcotest.test_case "parallel = sequential" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "parallel exception" `Quick test_parallel_exception;
        Alcotest.test_case "parallel env default" `Quick
          test_parallel_env_default;
        Alcotest.test_case "multiset canonical" `Quick test_multiset_canonical;
        Alcotest.test_case "multiset ops" `Quick test_multiset_ops;
        Alcotest.test_case "multiset enumerate" `Quick test_multiset_enumerate_count;
        Alcotest.test_case "selections" `Quick test_selections;
        Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
        Alcotest.test_case "bitset canonical" `Quick test_bitset_canonical;
        Alcotest.test_case "bitset build validation" `Quick
          test_bitset_build_validation;
        Alcotest.test_case "subsets_nonempty" `Quick test_subsets_nonempty;
      ] );
    ( "json",
      Alcotest.test_case "float rendering" `Quick test_json_floats
      :: List.map QCheck_alcotest.to_alcotest
           [ prop_json_roundtrip; prop_json_prefixes ] );
    Helpers.qsuite "util.prop"
      [
        prop_tower_inverse;
        prop_log_star_monotone;
        prop_int_in_range;
        prop_permutation;
        prop_sample_distinct;
        prop_enumerate_sorted_unique;
        prop_union_inter_laws;
        prop_roundtrip;
        prop_of_list_is_fold_of_add;
        prop_full_is_fold_of_add;
      ];
  ]
