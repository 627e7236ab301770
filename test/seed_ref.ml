(* Frozen copy of the SEED graph representation — boxed per-node
   adjacency arrays, [Array.init] ball extraction, [Marshal]
   fingerprints — exactly as lib/graph shipped before the CSR
   substrate replaced it. The differential substrate tests use this
   module as the golden oracle: whatever it computes is by definition
   what the CSR path must reproduce bit-for-bit (ports, BFS orders,
   ball contents, memo-key equivalence, runner labelings).

   Kept as test-only code on purpose: the library must never grow a
   second representation, but the tests need one that cannot drift
   with it. Do not "modernize" this file. *)

type g = {
  n : int;
  delta : int;
  adj : (int * int) array array; (* adj.(v).(p) = (neighbor, their port) *)
  input : int array array;
  edge_tag : int array array;
}

let n t = t.n
let delta t = t.delta
let degree t v = Array.length t.adj.(v)
let neighbor t v p = fst t.adj.(v).(p)
let neighbor_port t v p = snd t.adj.(v).(p)
let input t v p = t.input.(v).(p)
let edge_tag t v p = t.edge_tag.(v).(p)
let set_input t v p label = t.input.(v).(p) <- label
let set_edge_tag t v p tag = t.edge_tag.(v).(p) <- tag

(* Verbatim seed [of_edges]: ports assigned in edge-list order, a
   self-loop occupying two consecutive mutually-referencing ports. *)
let of_edges ?(self_loops = false) ~n ~delta edges =
  if n < 0 then invalid_arg "Seed_ref.of_edges: negative n";
  let deg = Array.make n 0 in
  let seen = Hashtbl.create (2 * List.length edges + 1) in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Seed_ref.of_edges: node out of range";
      if u = v && not self_loops then invalid_arg "Seed_ref.of_edges: self-loop";
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then
        invalid_arg "Seed_ref.of_edges: duplicate edge";
      Hashtbl.add seen key ();
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  Array.iter
    (fun d -> if d > delta then invalid_arg "Seed_ref.of_edges: degree > delta")
    deg;
  let adj = Array.init n (fun v -> Array.make deg.(v) (-1, -1)) in
  let next = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      if u = v then begin
        let p = next.(u) in
        adj.(u).(p) <- (u, p + 1);
        adj.(u).(p + 1) <- (u, p);
        next.(u) <- p + 2
      end
      else begin
        let pu = next.(u) and pv = next.(v) in
        adj.(u).(pu) <- (v, pv);
        adj.(v).(pv) <- (u, pu);
        next.(u) <- pu + 1;
        next.(v) <- pv + 1
      end)
    edges;
  {
    n;
    delta;
    adj;
    input = Array.init n (fun v -> Array.make deg.(v) (-1));
    edge_tag = Array.init n (fun v -> Array.make deg.(v) (-1));
  }

(* Mirror a CSR-built graph port for port — the seed and CSR builders
   assign identical ports from an edge list, so copying through the
   accessors loses nothing. For graphs that come from a CSR-only
   builder such as [Grid.Torus.make]. *)
let of_graph h =
  let n = Graph.n h in
  let per_port f =
    Array.init n (fun v -> Array.init (Graph.degree h v) (fun p -> f v p))
  in
  {
    n;
    delta = Graph.delta h;
    adj = per_port (fun v p -> (Graph.neighbor h v p, Graph.neighbor_port h v p));
    input = per_port (Graph.input h);
    edge_tag = per_port (Graph.edge_tag h);
  }

let edges t =
  let out = ref [] in
  for v = 0 to t.n - 1 do
    Array.iteri
      (fun p (u, q) -> if v < u || (v = u && p < q) then out := (v, u) :: !out)
      t.adj.(v)
  done;
  List.rev !out

let num_edges t =
  let ports = ref 0 in
  for v = 0 to t.n - 1 do
    ports := !ports + Array.length t.adj.(v)
  done;
  !ports / 2

let bfs_distances t source =
  let dist = Array.make t.n (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun (u, _) ->
        if dist.(u) = -1 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
      t.adj.(v)
  done;
  dist

(* Verbatim seed ball extraction (modulo the per-domain scratch, which
   only amortized allocations — per-call arrays compute the same
   thing). Produces the library's public [Graph.Ball.t] record so the
   differential can compare views field by field. *)
let extract t ~ids ~rand ~n_declared v ~radius : Graph.Ball.t * int array =
  if radius < 0 then invalid_arg "Seed_ref.extract: negative radius";
  let index = Array.make t.n 0 in
  let hdist = Array.make t.n 0 in
  let mark = Array.make t.n false in
  let queue = Array.make t.n 0 in
  mark.(v) <- true;
  hdist.(v) <- 0;
  queue.(0) <- v;
  let head = ref 0 and count = ref 1 in
  while !head < !count do
    let u = queue.(!head) in
    incr head;
    let du = hdist.(u) in
    if du < radius then
      Array.iter
        (fun (w, _) ->
          if not mark.(w) then begin
            mark.(w) <- true;
            index.(w) <- !count;
            hdist.(w) <- du + 1;
            queue.(!count) <- w;
            incr count
          end)
        t.adj.(u)
  done;
  let size = !count in
  let hosts = Array.sub queue 0 size in
  let dist = Array.init size (fun u -> hdist.(hosts.(u))) in
  let degree = Array.init size (fun u -> degree t hosts.(u)) in
  let adj =
    Array.init size (fun u ->
        let h = hosts.(u) in
        let du = dist.(u) in
        Array.init degree.(u) (fun p ->
            if radius = 0 then None
            else
              let w, q = t.adj.(h).(p) in
              if mark.(w) && (du <= radius - 1 || hdist.(w) <= radius - 1)
              then Some (index.(w), q)
              else None))
  in
  let input =
    Array.init size (fun u ->
        Array.init degree.(u) (fun p -> t.input.(hosts.(u)).(p)))
  in
  let edge_tag =
    Array.init size (fun u ->
        Array.init degree.(u) (fun p -> t.edge_tag.(hosts.(u)).(p)))
  in
  let id = Array.map (fun h -> ids.(h)) hosts in
  let rand = Array.map (fun h -> rand.(h)) hosts in
  ( {
      Graph.Ball.size;
      radius;
      center = 0;
      dist;
      degree;
      adj;
      input;
      edge_tag;
      id;
      rand;
      n_declared;
    },
    hosts )

(* Verbatim seed fingerprint: Marshal of the order-type-normalized
   view with randomness erased. [Graph.Ball.order_type] is unchanged
   by the CSR work, so this stays a faithful oracle for the memo-key
   *equivalence relation* the new byte encoding must induce. *)
let fingerprint (b : Graph.Ball.t) =
  let b = Graph.Ball.order_type b in
  Marshal.to_string
    ( b.Graph.Ball.size,
      b.Graph.Ball.radius,
      b.Graph.Ball.dist,
      b.Graph.Ball.degree,
      b.Graph.Ball.adj,
      b.Graph.Ball.input,
      b.Graph.Ball.edge_tag,
      b.Graph.Ball.id,
      b.Graph.Ball.n_declared )
    []

type run_result = {
  labels : int array array;
  hits : int;           (* memo hits, 0 when memo off *)
  distinct : int;       (* distinct canonical views, 0 when memo off *)
}

(* Sequential replica of [Local.Runner.run]'s simulate phase on the
   seed representation: identical seed → rng → ids → rand derivation
   (`Random mode, or `Fixed when [ids] is given), identical radius
   resolution, Marshal-keyed memo. No verification, no parallelism —
   the differential compares labelings and cache semantics, nothing
   else. *)
let run ?(seed = 0xC0FFEE) ?ids ?(memo = false) ~algo:(a : Local.Algorithm.t)
    t =
  let n = t.n in
  let rng = Util.Prng.create ~seed in
  let ids = match ids with Some ids -> ids | None -> Graph.Ids.random rng n in
  let rand = Array.init n (fun _ -> Util.Prng.next_int64 rng) in
  let radius = a.Local.Algorithm.radius ~n in
  let table = Hashtbl.create 64 in
  let hits = ref 0 in
  let labels =
    Array.init n (fun v ->
        let ball, _ = extract t ~ids ~rand ~n_declared:n v ~radius in
        if not memo then a.Local.Algorithm.run ball
        else
          let key = fingerprint ball in
          match Hashtbl.find_opt table key with
          | Some out ->
            incr hits;
            Array.copy out
          | None ->
            let out = a.Local.Algorithm.run ball in
            Hashtbl.add table key (Array.copy out);
            out)
  in
  { labels; hits = !hits; distinct = Hashtbl.length table }
