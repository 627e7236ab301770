(* Static classification of LCLs on bounded-degree trees into the
   landscape of the paper: O(1) / Θ(log* n) / Θ(log n) / n^Θ(1)
   (Grunau–Rozhoň–Brandt; decision procedures in the tradition of
   Chang 2009.09645 and Balliu et al. 2202.08544).

   The procedure layers sound criteria and reports exactly what it
   established:

   1. *Pruning*: labels unusable on any instance are removed
      ([Lcl.Problem.prune]); an empty degree row after pruning means
      stars of that degree are unsolvable.
   2. *Gap pipeline* (Theorem 3.10): a budgeted run of round
      elimination. [Constant] yields an executable O(1) algorithm (the
      strongest possible certificate); a fixed point yields the
      Ω(log* n) side of the gap.
   3. *Diagram automaton* ([Cycle_path]): exact for delta = 2 — trees
      of maximum degree 2 *are* paths. For delta >= 3 the path verdict
      is still a valid lower bound, because paths are legal instances.
   4. *Sustaining set*: the greatest fixed point of "label a can head
      arbitrarily deep subtrees at every degree". A sustaining label
      compatible with a leaf makes every tree solvable top-down from a
      leaf root (an O(diameter) algorithm, hence the n^O(1) fallback
      upper bound); two refinements sharpen it:
      - *greedy closure*: every multiset of committed neighbor labels
        extends to a configuration — after an O(log* n) coloring nodes
        commit in color order, so the problem is O(log* n);
      - *chain flexibility*: the sustaining set is strongly connected
        and aperiodic in the restricted diagram automaton — long
        chains between high-degree nodes can be filled at any length,
        which is what rake-and-compress needs for O(log n).
   5. *Depth elimination* on complete (delta-1)-ary trees: iterate
      "completable below height h"; if the root row empties, that
      finite tree family is unsolvable.

   Everything here is deterministic — no randomness, no clocks — so
   reports are byte-stable and cacheable by fingerprint. *)

type level = Constant | Log_star | Log | Polynomial

type verdict =
  | Class of level
  | Between of level * level
  | Unsolvable
  | Unsupported of string
  | Inconclusive of string

type upper =
  | U_pipeline of { rounds : int }
  | U_greedy of { set : string list }
  | U_chain_flexible of { set : string list; flexible : string }
  | U_path_automaton of { state : string }
  | U_solvable of { root : string }
  | U_two_node_components

type lower =
  | L_trivial
  | L_path of { verdict : Cycle_path.verdict }
  | L_fixed_point of { at : int }
  | L_empty_degree_row of { degree : int }
  | L_regular_elimination of { height : int; arity : int }

type certificate = {
  pruned : string list;
  sustaining : string list;
  upper : upper option;
  lower : lower;
}

type t = {
  problem : string;
  delta : int;
  has_inputs : bool;
  path_verdict : Cycle_path.verdict option;
  cycle_verdict : Cycle_path.verdict option;
  verdict : verdict;
  certificate : certificate;
  algo : Relim.Lift.algo option;
  notes : string list;
}

let m_classify = Obs.Metrics.counter "landscape.classify"
let m_replay = Obs.Metrics.counter "landscape.replay"

(* -- rendering -------------------------------------------------------- *)

let level_rank = function
  | Constant -> 0 | Log_star -> 1 | Log -> 2 | Polynomial -> 3

let level_string = function
  | Constant -> "O(1)"
  | Log_star -> "Theta(log* n)"
  | Log -> "Theta(log n)"
  | Polynomial -> "n^Theta(1)"

let level_key = function
  | Constant -> "constant"
  | Log_star -> "log_star"
  | Log -> "log"
  | Polynomial -> "polynomial"

let omega_string = function
  | Constant -> "Omega(1)"
  | Log_star -> "Omega(log* n)"
  | Log -> "Omega(log n)"
  | Polynomial -> "Omega(n^eps)"

let o_string = function
  | Constant -> "O(1)"
  | Log_star -> "O(log* n)"
  | Log -> "O(log n)"
  | Polynomial -> "n^O(1)"

let verdict_text = function
  | Class l -> level_string l
  | Between (lo, hi) ->
    Fmt.str "between %s and %s" (omega_string lo) (o_string hi)
  | Unsolvable -> "unsolvable"
  | Unsupported reason -> "unsupported: " ^ reason
  | Inconclusive reason -> "inconclusive: " ^ reason

(* -- certificate machinery (all on the pruned problem) ---------------- *)

let labels q = List.init (Lcl.Alphabet.size (Lcl.Problem.sigma_out q)) Fun.id

(* First degree in 1..delta whose (pruned) configuration row is empty:
   a degree-d star then admits no valid labeling — pruning preserves
   solution sets, so this transfers to the original problem. *)
let empty_degree_row q =
  let rec go d =
    if d > Lcl.Problem.delta q then None
    else if Lcl.Problem.node_configs q ~degree:d = [] then Some d
    else go (d + 1)
  in
  go 1

(* Greatest fixed point of the sustaining relation: [a] survives iff at
   every degree d some configuration C responds to [a] across the edge
   (some b in C with {a, b} allowed) while the remaining d-1 legs of C
   are themselves sustaining. A sustaining label can head complete
   subtrees of arbitrary depth, at any branching the instance throws at
   it. *)
let sustaining q =
  let alive = Array.make (Lcl.Alphabet.size (Lcl.Problem.sigma_out q)) true in
  let supported a =
    let degree_ok d =
      List.exists
        (fun c ->
          List.exists
            (fun b ->
              Lcl.Problem.edge_ok q a b
              && (match Util.Multiset.remove_one b c with
                 | Some rest ->
                   List.for_all (fun l -> alive.(l))
                     (Util.Multiset.to_list rest)
                 | None -> false))
            (Util.Multiset.distinct c))
        (Lcl.Problem.node_configs q ~degree:d)
    in
    let rec all d = d > Lcl.Problem.delta q || (degree_ok d && all (d + 1)) in
    all 1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        if alive.(a) && not (supported a) then begin
          alive.(a) <- false;
          changed := true
        end)
      (labels q)
  done;
  alive

(* A sustaining label that is itself a legal leaf: rooting any tree at
   a leaf and walking top-down through the sustaining witnesses labels
   it — solvability on *all* trees, in O(diameter) rounds. *)
let leaf_root q alive =
  List.find_opt
    (fun a -> alive.(a) && Lcl.Problem.node_ok q (Util.Multiset.of_list [ a ]))
    (labels q)

(* Depth elimination on the complete (delta-1)-ary tree family
   (delta >= 3): X_h = labels a parent may expose toward a complete
   height-h subtree whose internal nodes have degree delta. X_1 needs a
   leaf partner; X_{h+1} needs a degree-delta configuration answering
   [a] whose remaining legs sit in X_h. If no root configuration
   (degree delta-1) survives at some height, that tree is unsolvable.
   The scan is bounded (sound, not complete). *)
let regular_elimination q =
  let delta = Lcl.Problem.delta q in
  let k = Lcl.Alphabet.size (Lcl.Problem.sigma_out q) in
  let x0 =
    Array.init k (fun a ->
        List.exists
          (fun b ->
            Lcl.Problem.edge_ok q a b
            && Lcl.Problem.node_ok q (Util.Multiset.of_list [ b ]))
          (labels q))
  in
  let root_ok x =
    List.exists
      (fun c -> List.for_all (fun l -> x.(l)) (Util.Multiset.to_list c))
      (Lcl.Problem.node_configs q ~degree:(delta - 1))
  in
  let step x =
    Array.init k (fun a ->
        List.exists
          (fun c ->
            List.exists
              (fun b ->
                Lcl.Problem.edge_ok q a b
                && (match Util.Multiset.remove_one b c with
                   | Some rest ->
                     List.for_all (fun l -> x.(l))
                       (Util.Multiset.to_list rest)
                   | None -> false))
              (Util.Multiset.distinct c))
          (Lcl.Problem.node_configs q ~degree:delta))
  in
  (* [x] entering iteration [h] is E_{h-1}: the labels a parent may
     expose toward a height-(h-1) subtree. A root (degree delta-1)
     whose legs cannot all sit in E_{h-1} makes the height-[h] tree
     unsolvable — [h], not [h]+1: the replay witness brute-forces the
     claimed height, and overstating it by one points at a tree that
     may well be solvable. *)
  let rec go h x =
    if not (root_ok x) then Some h
    else if h > (2 * k) + 2 then None
    else go (h + 1) (step x)
  in
  go 1 x0

type greedy_outcome = G_holds of int list | G_fails | G_skipped

(* Greedy closure: B = sustaining labels some sustaining neighbor can
   answer. The check asks that for every degree d and every multiset of
   at most d committed neighbor labels drawn from B, some configuration
   C in N^d matches — each committed b gets a distinct leg a with
   {a, b} allowed, and every uncommitted leg carries a label from B (so
   later neighbors face the same invariant). Then after an O(log* n)
   distance coloring, nodes commit in color order: Θ(log* n) upper
   bound. Small backtracking search; budgeted. *)
let greedy_closed q alive =
  let delta = Lcl.Problem.delta q in
  let s_labels = List.filter (fun a -> alive.(a)) (labels q) in
  let b_labels =
    List.filter
      (fun b -> List.exists (fun a -> Lcl.Problem.edge_ok q a b) s_labels)
      s_labels
  in
  if List.length b_labels > 8 || delta > 5 then G_skipped
  else begin
    let in_b l = List.mem l b_labels in
    let extends c committed =
      let slots = Array.of_list (Util.Multiset.to_list c) in
      let n = Array.length slots in
      let used = Array.make n false in
      let rec assign = function
        | [] ->
          let ok = ref true in
          for i = 0 to n - 1 do
            if (not used.(i)) && not (in_b slots.(i)) then ok := false
          done;
          !ok
        | b :: rest ->
          let rec try_slot i =
            if i >= n then false
            else if (not used.(i)) && Lcl.Problem.edge_ok q slots.(i) b
            then begin
              used.(i) <- true;
              let r = assign rest in
              used.(i) <- false;
              r || try_slot (i + 1)
            end
            else try_slot (i + 1)
          in
          try_slot 0
      in
      assign committed
    in
    let ok = ref true in
    for d = 1 to delta do
      let rows = Lcl.Problem.node_configs q ~degree:d in
      for k = 0 to d do
        List.iter
          (fun m ->
            let committed = Util.Multiset.to_list m in
            if not (List.exists (fun c -> extends c committed) rows) then
              ok := false)
          (Util.Multiset.enumerate ~univ:b_labels ~k)
      done
    done;
    if !ok then G_holds s_labels else G_fails
  end

(* Chain flexibility: the sustaining set, viewed inside the diagram
   automaton restricted to it, is strongly connected with a flexible
   (period-1) state. Long degree-2 chains between high-degree nodes can
   then be filled between any two sustaining endpoint labels at any
   sufficiently large length — the certificate rake-and-compress needs
   for an O(log n) labeling pass. *)
let chain_flexible q alive =
  let s_labels = List.filter (fun a -> alive.(a)) (labels q) in
  match s_labels with
  | [] -> None
  | s0 :: _ ->
    let a = Automaton.of_problem ~keep:alive q in
    let src = Array.init a.Automaton.states (fun i -> i = s0) in
    let fwd = Automaton.forward_closure a src in
    let bwd = Automaton.backward_closure a src in
    let connected = List.for_all (fun l -> fwd.(l) && bwd.(l)) s_labels in
    if connected && Automaton.period a s0 = Some 1 then Some s0 else None

(* -- the decision procedure ------------------------------------------- *)

let path_level = function
  | Cycle_path.Const -> Constant
  | Cycle_path.Log_star -> Log_star
  | Cycle_path.Global -> Polynomial
  | Cycle_path.Unsolvable -> Constant (* unreachable: handled before *)

let classify ?(max_iterations = 3) ?(max_labels = 200) p =
  Obs.Span.with_ "landscape.classify" @@ fun () ->
  Obs.Metrics.incr m_classify;
  let name = Lcl.Problem.name p in
  let delta = Lcl.Problem.delta p in
  let has_inputs = Lcl.Alphabet.size (Lcl.Problem.sigma_in p) > 1 in
  let q, map = Lcl.Problem.prune_with_map p in
  let out = Lcl.Problem.sigma_out p in
  let oname i = Lcl.Alphabet.name out i in
  let qname i = oname map.(i) in
  let pruned_names =
    let kept = Array.make (Lcl.Alphabet.size out) false in
    Array.iter (fun o -> kept.(o) <- true) map;
    List.filter_map
      (fun i -> if kept.(i) then None else Some (oname i))
      (List.init (Lcl.Alphabet.size out) Fun.id)
  in
  let path_verdict, cycle_verdict =
    if (not has_inputs) && delta >= 2 then
      ( Result.to_option (Cycle_path.classify_path_checked p),
        Result.to_option (Cycle_path.classify_cycle_checked p) )
    else (None, None)
  in
  let notes = ref [] in
  let note fmt = Fmt.kstr (fun s -> notes := s :: !notes) fmt in
  let alive =
    if has_inputs then [||]
    else sustaining q
  in
  let sustaining_names =
    List.filter_map
      (fun a -> if a < Array.length alive && alive.(a) then Some (qname a) else None)
      (labels q)
  in
  let mk ?upper ?algo ~lower verdict =
    {
      problem = name;
      delta;
      has_inputs;
      path_verdict;
      cycle_verdict;
      verdict;
      certificate =
        { pruned = pruned_names; sustaining = sustaining_names; upper; lower };
      algo;
      notes = List.rev !notes;
    }
  in
  match empty_degree_row q with
  | Some d ->
    note "no degree-%d configuration survives pruning: degree-%d stars are \
          unsolvable" d d;
    mk ~lower:(L_empty_degree_row { degree = d }) Unsolvable
  | None ->
    (* budgeted gap pipeline; Constant is the strongest certificate *)
    let pipeline =
      match Relim.Pipeline.run ~max_iterations ~max_labels p with
      | r -> Some r.Relim.Pipeline.verdict
      | exception e ->
        note "gap pipeline failed: %s" (Printexc.to_string e);
        None
    in
    let fixed_point =
      match pipeline with
      | Some (Relim.Pipeline.Lower_bound_log_star { fixed_point_at }) ->
        note "round-elimination fixed point at iteration %d: Omega(log* n) \
              (Theorem 3.10)" fixed_point_at;
        Some fixed_point_at
      | Some (Relim.Pipeline.Budget_exceeded { at_iteration; labels }) ->
        note "gap pipeline budget exceeded at iteration %d (%d labels): O(1) \
              undecided" at_iteration labels;
        None
      | Some (Relim.Pipeline.Deadline_exceeded { at_iteration; _ }) ->
        note "gap pipeline deadline exceeded at iteration %d: O(1) undecided"
          at_iteration;
        None
      | _ -> None
    in
    (match pipeline with
    | Some (Relim.Pipeline.Constant { rounds; algo }) ->
      if delta = 2 && (not has_inputs) && path_verdict <> Some Cycle_path.Const
      then
        note "warning: pipeline found an O(1) algorithm but the path \
              automaton disagrees — internal inconsistency";
      note "gap pipeline produced a %d-round algorithm" rounds;
      mk ~upper:(U_pipeline { rounds }) ~algo ~lower:L_trivial (Class Constant)
    | _ ->
      if has_inputs then begin
        let lower =
          match fixed_point with
          | Some at -> L_fixed_point { at }
          | None -> L_trivial
        in
        mk ~lower
          (Unsupported
             "input-labeled LCL: beyond the O(1) gap pipeline, \
              classification with inputs is PSPACE-hard already on paths")
      end
      else if delta <= 1 then begin
        (* components have at most two nodes *)
        let solvable_pair =
          List.exists
            (fun a ->
              Lcl.Problem.node_ok q (Util.Multiset.of_list [ a ])
              && List.exists
                   (fun b ->
                     Lcl.Problem.edge_ok q a b
                     && Lcl.Problem.node_ok q (Util.Multiset.of_list [ b ]))
                   (labels q))
            (labels q)
        in
        if solvable_pair then
          mk ~upper:U_two_node_components ~lower:L_trivial (Class Constant)
        else begin
          note "delta <= 1: the two-node path admits no valid labeling";
          mk ~lower:(L_path { verdict = Cycle_path.Unsolvable }) Unsolvable
        end
      end
      else begin
        match path_verdict with
        | None ->
          (* unreachable: input-free, delta >= 2 *)
          mk ~lower:L_trivial (Inconclusive "path automaton unavailable")
        | Some Cycle_path.Unsolvable ->
          note "long paths — legal instances at any delta — are unsolvable";
          mk ~lower:(L_path { verdict = Cycle_path.Unsolvable }) Unsolvable
        | Some vp when delta = 2 ->
          (* trees of maximum degree 2 are paths: the verdict is exact *)
          let au = Automaton.of_problem p in
          let usable = Automaton.usable_on_paths au in
          let first_usable candidates =
            match List.find_opt (fun r -> usable.(r)) candidates with
            | Some r -> oname r
            | None -> "?"
          in
          (match vp with
          | Cycle_path.Const ->
            let state = first_usable (Automaton.self_loops au) in
            mk ~upper:(U_path_automaton { state }) ~lower:L_trivial
              (Class Constant)
          | Cycle_path.Log_star ->
            let state = first_usable (Automaton.flexible_states au) in
            mk
              ~upper:(U_path_automaton { state })
              ~lower:(L_path { verdict = vp })
              (Class Log_star)
          | Cycle_path.Global ->
            let cyc = Automaton.on_cycle au in
            let state =
              first_usable
                (List.filter (fun r -> cyc.(r)) (labels p))
            in
            mk
              ~upper:(U_path_automaton { state })
              ~lower:(L_path { verdict = vp })
              (Class Polynomial)
          | Cycle_path.Unsolvable -> assert false)
        | Some vp ->
          (* delta >= 3: bounds from the path restriction, the pipeline
             fixed point, and the sustaining-set refinements *)
          (match regular_elimination q with
          | Some height ->
            note "depth elimination empties the root row: the complete \
                  %d-ary tree of height %d is unsolvable" (delta - 1) height;
            mk
              ~lower:(L_regular_elimination { height; arity = delta - 1 })
              Unsolvable
          | None ->
            (match leaf_root q alive with
            | None ->
              note "paths are solvable (%s) but no sustaining label set \
                    with a leaf-compatible label was found"
                (Cycle_path.verdict_string vp);
              mk
                ~lower:(L_path { verdict = vp })
                (Inconclusive
                   "solvability on all bounded-degree trees not established")
            | Some root ->
              let lower_level, lower_cert =
                let candidates =
                  (path_level vp, L_path { verdict = vp })
                  ::
                  (match fixed_point with
                  | Some at -> [ (Log_star, L_fixed_point { at }) ]
                  | None -> [])
                  @ [ (Constant, L_trivial) ]
                in
                List.fold_left
                  (fun (bl, bc) (l, c) ->
                    if level_rank l > level_rank bl then (l, c) else (bl, bc))
                  (List.hd candidates) (List.tl candidates)
              in
              let upper_level, upper_cert =
                let greedy = greedy_closed q alive in
                (match greedy with
                | G_skipped ->
                  note "greedy-closure check skipped (label/degree budget)"
                | _ -> ());
                let candidates =
                  (match greedy with
                  | G_holds set ->
                    [ (Log_star, U_greedy { set = List.map qname set }) ]
                  | _ -> [])
                  @ (match chain_flexible q alive with
                    | Some f ->
                      [ ( Log,
                          U_chain_flexible
                            {
                              set = sustaining_names;
                              flexible = qname f;
                            } ) ]
                    | None -> [])
                  @ [ (Polynomial, U_solvable { root = qname root }) ]
                in
                List.hd candidates
              in
              if level_rank lower_level > level_rank upper_level then begin
                note "contradictory bounds: %s lower vs %s upper — internal \
                      inconsistency"
                  (level_string lower_level) (level_string upper_level);
                mk ~upper:upper_cert ~lower:lower_cert
                  (Inconclusive "contradictory bounds")
              end
              else if lower_level = upper_level then
                mk ~upper:upper_cert ~lower:lower_cert (Class lower_level)
              else
                mk ~upper:upper_cert ~lower:lower_cert
                  (Between (lower_level, upper_level))))
      end)

(* -- byte-stable JSON ------------------------------------------------- *)

let strings ss = Json.List (List.map (fun s -> Json.String s) ss)
let kind k fields = Json.Obj (("kind", Json.String k) :: fields)

let opt f = function Some v -> f v | None -> Json.Null

let upper_json = function
  | U_pipeline { rounds } -> kind "pipeline" [ ("rounds", Int rounds) ]
  | U_greedy { set } -> kind "greedy" [ ("set", strings set) ]
  | U_chain_flexible { set; flexible } ->
    kind "chain_flexible"
      [ ("set", strings set); ("flexible", String flexible) ]
  | U_path_automaton { state } ->
    kind "path_automaton" [ ("state", String state) ]
  | U_solvable { root } -> kind "top_down" [ ("root", String root) ]
  | U_two_node_components -> kind "two_node_components" []

let cp_json v = Json.String (Cycle_path.verdict_string v)

let lower_json = function
  | L_trivial -> kind "trivial" []
  | L_path { verdict } -> kind "path_automaton" [ ("verdict", cp_json verdict) ]
  | L_fixed_point { at } -> kind "fixed_point" [ ("iteration", Int at) ]
  | L_empty_degree_row { degree } ->
    kind "empty_degree_row" [ ("degree", Int degree) ]
  | L_regular_elimination { height; arity } ->
    kind "regular_elimination" [ ("height", Int height); ("arity", Int arity) ]

let to_json t =
  let verdict, lo, hi, detail =
    match t.verdict with
    | Class l -> ("class", Some l, Some l, None)
    | Between (lo, hi) -> ("between", Some lo, Some hi, None)
    | Unsolvable -> ("unsolvable", None, None, None)
    | Unsupported r -> ("unsupported", None, None, Some r)
    | Inconclusive r -> ("inconclusive", None, None, Some r)
  in
  let level l = Json.String (level_key l) in
  let algorithm a = Json.Obj [ ("radius", Int a.Relim.Lift.radius) ] in
  Json.to_string
    (Obj
       [
         ("problem", String t.problem); ("delta", Int t.delta);
         ("inputs", Bool t.has_inputs); ("verdict", String verdict);
         ("lower", opt level lo); ("upper", opt level hi);
         ("detail", opt (fun d -> Json.String d) detail);
         ("text", String (verdict_text t.verdict));
         ("paths", opt cp_json t.path_verdict);
         ("cycles", opt cp_json t.cycle_verdict);
         ( "certificate",
           Obj
             [
               ("pruned", strings t.certificate.pruned);
               ("sustaining", strings t.certificate.sustaining);
               ("upper", opt upper_json t.certificate.upper);
               ("lower", lower_json t.certificate.lower);
             ] );
         ("algorithm", opt algorithm t.algo);
         ("notes", strings t.notes);
       ])

(* -- text report ------------------------------------------------------ *)

let upper_text = function
  | U_pipeline { rounds } ->
    Fmt.str "gap pipeline: %d-round algorithm" rounds
  | U_greedy { set } ->
    Fmt.str "greedy-closed sustaining set {%s} -> O(log* n)"
      (String.concat ", " set)
  | U_chain_flexible { set; flexible } ->
    Fmt.str
      "chain-flexible sustaining set {%s} (flexible state %s) -> O(log n)"
      (String.concat ", " set) flexible
  | U_path_automaton { state } ->
    Fmt.str "path automaton witness state %s" state
  | U_solvable { root } ->
    Fmt.str "top-down from leaf root %s -> n^O(1)" root
  | U_two_node_components -> "components have at most two nodes"

let lower_text = function
  | L_trivial -> "Omega(1) (trivial)"
  | L_path { verdict } ->
    Fmt.str "path restriction: %s" (Cycle_path.verdict_string verdict)
  | L_fixed_point { at } ->
    Fmt.str "round-elimination fixed point at iteration %d" at
  | L_empty_degree_row { degree } ->
    Fmt.str "empty degree-%d row: stars are unsolvable" degree
  | L_regular_elimination { height; arity } ->
    Fmt.str "depth elimination: complete %d-ary tree of height %d unsolvable"
      arity height

let pp ppf t =
  Fmt.pf ppf "problem %s: delta %d, %s@," t.problem t.delta
    (if t.has_inputs then "with inputs" else "input-free");
  Fmt.pf ppf "verdict: %s@," (verdict_text t.verdict);
  (match (t.path_verdict, t.cycle_verdict) with
  | Some p, Some c ->
    Fmt.pf ppf "paths: %s; cycles: %s@," (Cycle_path.verdict_string p)
      (Cycle_path.verdict_string c)
  | _ -> ());
  Fmt.pf ppf "certificate:@,";
  (if t.certificate.pruned <> [] then
     Fmt.pf ppf "  pruned: {%s}@," (String.concat ", " t.certificate.pruned));
  (if t.certificate.sustaining <> [] then
     Fmt.pf ppf "  sustaining: {%s}@,"
       (String.concat ", " t.certificate.sustaining));
  (match t.certificate.upper with
  | Some u -> Fmt.pf ppf "  upper: %s@," (upper_text u)
  | None -> ());
  Fmt.pf ppf "  lower: %s" (lower_text t.certificate.lower);
  List.iter (fun n -> Fmt.pf ppf "@,note: %s" n) t.notes

(* -- replay ----------------------------------------------------------- *)

type check = { name : string; ok : bool; detail : string }
type replay = { checks : check list; agreement : bool }

let replay ?(seed = 42) ?(sizes = [ 8; 20; 50 ]) ?domains ?workers ?memo p t =
  Obs.Span.with_ "landscape.replay" @@ fun () ->
  Obs.Metrics.incr m_replay;
  let delta = Lcl.Problem.delta p in
  let input_free = Lcl.Alphabet.size (Lcl.Problem.sigma_in p) = 1 in
  let checks = ref [] in
  let add name ok detail = checks := { name; ok; detail } :: !checks in
  let solvable g = Lcl.Verify.solvable p g <> None in
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let report_ns = function
    | [] -> "agrees with exhaustive search"
    | ns ->
      Fmt.str "disagreement at n = %s"
        (String.concat ", " (List.map string_of_int ns))
  in
  if input_free && delta >= 2 then begin
    let au = Automaton.of_problem p in
    let bad_paths =
      List.filter
        (fun n ->
          Automaton.path_walk_exists au n <> solvable (Graph.Builder.path n))
        (range 3 10)
    in
    add "paths(3..10)" (bad_paths = []) (report_ns bad_paths);
    let bad_cycles =
      List.filter
        (fun n ->
          Automaton.closed_walk_exists au n
          <> solvable (Graph.Builder.cycle n))
        (range 3 10)
    in
    add "cycles(3..10)" (bad_cycles = []) (report_ns bad_cycles)
  end;
  (match t.algo with
  | Some algo ->
    let v =
      Tree_gap.validate ~seed ~sizes ?domains ?workers ?memo ~problem:p algo
    in
    add "constant-algorithm" v.Tree_gap.all_valid
      (if v.Tree_gap.all_valid then
         Fmt.str "valid on random forests, n in {%s}"
           (String.concat ", " (List.map string_of_int v.Tree_gap.sizes))
       else
         Fmt.str "violations at n = %s"
           (String.concat ", "
              (List.map (fun (n, _) -> string_of_int n) v.Tree_gap.failures)))
  | None -> ());
  (match t.verdict with
  | (Class _ | Between _) when input_free && delta >= 3 ->
    (* the sustaining-set certificate promises solvability on *every*
       tree. Only meaningful at delta >= 3: a delta = 2 verdict comes
       from the path automaton, whose solvable instances may be
       parity-restricted (e.g. only even path lengths) — and that
       family is already exhaustively covered by paths(3..10). *)
    let rng = Util.Prng.create ~seed in
    let bad =
      List.filter
        (fun n -> not (solvable (Graph.Builder.random_tree rng ~delta n)))
        [ 6; 9; 12 ]
    in
    add "random-trees" (bad = []) (report_ns bad)
  | Class _ when delta <= 1 ->
    add "two-node-path" (solvable (Graph.Builder.path 2))
      "the two-node path is solvable"
  | Unsolvable ->
    (match t.certificate.lower with
    | L_empty_degree_row { degree } ->
      (* star (d+1): center of degree d plus its d leaves *)
      add "witness(star)"
        (not (solvable (Graph.Builder.star (degree + 1))))
        (Fmt.str "degree-%d star admits no labeling" degree)
    | L_regular_elimination { height; arity } ->
      let rec tree_size h acc pow =
        if h < 0 then acc else tree_size (h - 1) (acc + pow) (pow * arity)
      in
      let n = tree_size height 0 1 in
      if n <= 400 then
        add "witness(complete-tree)"
          (not (solvable (Graph.Builder.complete_tree ~arity n)))
          (Fmt.str "complete %d-ary tree of height %d (%d nodes) admits no \
                    labeling"
             arity height n)
      else
        add "witness(complete-tree)" true
          (Fmt.str "witness has %d nodes; too large to replay, skipped" n)
    | L_path _ | L_trivial | L_fixed_point _ ->
      (* covered by the paths/cycles exhaustive checks above *)
      ())
  | _ -> ());
  let checks = List.rev !checks in
  { checks; agreement = List.for_all (fun c -> c.ok) checks }

let replay_to_json r =
  let check c =
    Json.Obj
      [
        ("name", String c.name); ("ok", Bool c.ok); ("detail", String c.detail);
      ]
  in
  Json.to_string
    (Obj
       [
         ("checks", List (List.map check r.checks));
         ("agreement", Bool r.agreement);
       ])

let pp_replay ppf r =
  List.iter
    (fun c ->
      Fmt.pf ppf "%s %s: %s@,"
        (if c.ok then "ok  " else "FAIL")
        c.name c.detail)
    r.checks;
  Fmt.pf ppf "replay: %s"
    (if r.agreement then "certificates agree with execution"
     else "DISAGREEMENT between certificates and execution")
