(* Solution verification (Definitions 2.3 and 2.4). A candidate output
   is a label per half-edge; we report exactly where it is incorrect:
   at a node (node configuration or g violated at an incident
   half-edge) or on an edge (edge configuration or g violated at either
   endpoint) — mirroring the paper's two failure events, which the
   local failure probability of Def. 2.4 ranges over. *)

type violation =
  | Bad_node of int                    (* node whose configuration is wrong *)
  | Bad_edge of int * int              (* half-edge (node, port), node < other *)
  | Bad_g of int * int                 (* (node, port) with g violated *)

let pp_violation ppf = function
  | Bad_node v -> Fmt.pf ppf "node %d" v
  | Bad_edge (v, p) -> Fmt.pf ppf "edge at (%d,%d)" v p
  | Bad_g (v, p) -> Fmt.pf ppf "g at (%d,%d)" v p

(** Input label of half-edge (v, p): the graph's input if set, else
    label 0 (the canonical input-free letter). *)
let input_label g v p =
  let i = Graph.input g v p in
  if i < 0 then 0 else i

(* Validate that every half-edge input of [g] indexes into the
   problem's input alphabet; catches running a problem on a graph
   annotated for a different input alphabet. *)
let check_inputs problem g =
  for v = 0 to Graph.n g - 1 do
    for p = 0 to Graph.degree g v - 1 do
      let i = input_label g v p in
      if i >= Alphabet.size (Problem.sigma_in problem) then
        invalid_arg
          (Printf.sprintf
             "Verify: half-edge (%d,%d) carries input %d but %s has only %d input labels"
             v p i (Problem.name problem)
             (Alphabet.size (Problem.sigma_in problem)))
    done
  done

(** All violations of [labeling] (node-major, port-indexed output
    labels) against [problem] on [g]. Empty list = correct solution. *)
let violations problem g labeling =
  if Array.length labeling <> Graph.n g then
    invalid_arg "Verify.violations: labeling size mismatch";
  check_inputs problem g;
  let out = ref [] in
  for v = 0 to Graph.n g - 1 do
    let d = Graph.degree g v in
    if Array.length labeling.(v) <> d then
      invalid_arg "Verify.violations: port count mismatch";
    (* g-condition per half-edge *)
    for p = 0 to d - 1 do
      if
        not
          (Problem.g_allows problem ~inp:(input_label g v p)
             ~out:labeling.(v).(p))
      then out := Bad_g (v, p) :: !out
    done;
    (* node configuration *)
    if d >= 1 then begin
      let config = Util.Multiset.of_array labeling.(v) in
      if not (Problem.node_ok problem config) then out := Bad_node v :: !out
    end;
    (* edge configuration, counted once per edge (a self-loop once,
       from its lower port — mirroring [Graph.edges]) *)
    for p = 0 to d - 1 do
      let u = Graph.neighbor g v p and q = Graph.neighbor_port g v p in
      if
        (v < u || (v = u && p < q))
        && not (Problem.edge_ok problem labeling.(v).(p) labeling.(u).(q))
      then out := Bad_edge (v, p) :: !out
    done
  done;
  List.rev !out

let is_valid problem g labeling = violations problem g labeling = []

(** Nodes and edges "touched" by [violations] — the per-event failure
    indicator used when estimating local failure probabilities
    empirically (Def. 2.4 bounds the probability per node/edge). *)
let failure_events g violations =
  let node_fail = Array.make (Graph.n g) false in
  let edge_fail = Hashtbl.create 16 in
  List.iter
    (function
      | Bad_node v -> node_fail.(v) <- true
      | Bad_g (v, p) ->
        (* a g violation makes both the node and the edge incorrect
           (Def. 2.4 lists it under both events) *)
        node_fail.(v) <- true;
        let u = Graph.neighbor g v p in
        Hashtbl.replace edge_fail (min v u, max v u) ()
      | Bad_edge (v, p) ->
        let u = Graph.neighbor g v p in
        Hashtbl.replace edge_fail (min v u, max v u) ())
    violations;
  (node_fail, edge_fail)

(** Brute-force existence of *some* correct solution on a small graph
    (backtracking over half-edges). Exponential; used by tests to
    cross-check algorithms and by the zoo's sanity suite. *)
let solvable ?(limit = 2_000_000) problem g =
  let n = Graph.n g in
  let labeling = Array.init n (fun v -> Array.make (Graph.degree g v) (-1)) in
  let half_edges =
    List.concat
      (List.init n (fun v ->
           List.init (Graph.degree g v) (fun p -> (v, p))))
  in
  let nsigma = Alphabet.size (Problem.sigma_out problem) in
  let steps = ref 0 in
  let exception Out_of_budget in
  (* check constraints that are fully determined once (v,p) is set *)
  let consistent v p =
    let l = labeling.(v).(p) in
    if not (Problem.g_allows problem ~inp:(input_label g v p) ~out:l) then
      false
    else
      let u = Graph.neighbor g v p and q = Graph.neighbor_port g v p in
      let edge_ok =
        labeling.(u).(q) = -1 || Problem.edge_ok problem l labeling.(u).(q)
      in
      let node_done = Array.for_all (fun x -> x >= 0) labeling.(v) in
      edge_ok
      && (not node_done
          || Problem.node_ok problem (Util.Multiset.of_array labeling.(v)))
  in
  let rec go = function
    | [] -> true
    | (v, p) :: rest ->
      incr steps;
      if !steps > limit then raise Out_of_budget;
      let found = ref false in
      let l = ref 0 in
      while (not !found) && !l < nsigma do
        labeling.(v).(p) <- !l;
        if consistent v p && go rest then found := true
        else labeling.(v).(p) <- -1;
        incr l
      done;
      !found
  in
  match go half_edges with
  | true -> Some (Array.map Array.copy labeling)
  | false -> None
  | exception Out_of_budget -> None
