(* Shared QCheck generators for property-based tests: random small
   node-edge-checkable LCLs, random graphs, and helpers. *)

let rng_of_seed seed = Util.Prng.create ~seed

(** Random input-free problem with [k] output labels and degree bound
    [delta]; every constraint set is a random nonempty subset of the
    possible configurations. The implementation lives in
    [Fuzz.Gen.raw_problem] now (same draw order, so historical QCheck
    repro seeds keep their meaning). *)
let random_problem rng ~k ~delta = Fuzz.Gen.raw_problem rng ~k ~delta

(** Run [f] with environment variable [name] set to [value], restoring
    the previous value afterwards — on exception too. OCaml has no
    unsetenv, so a previously-absent variable is restored as [""],
    which every LCL_* reader (LCL_DOMAINS, LCL_WORKERS, LCL_OBS, the
    cluster chaos hooks) treats as unset. Use this instead of bare
    [Unix.putenv]: a leaked setting silently changes the worker/domain
    counts of every later test in the binary. *)
let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

(** Seed arbitrary for property tests that build their own randomized
    structures (printing the seed keeps failures reproducible). *)
let seed_arb =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck.Gen.(int_bound 1_000_000)

(** A random tree on [n] nodes with degree bound [delta]. *)
let random_tree seed ~delta n =
  Graph.Builder.random_tree (rng_of_seed seed) ~delta n

let qsuite name cells = (name, List.map QCheck_alcotest.to_alcotest cells)

(** Whether [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* -- allocation counting ------------------------------------------------ *)

(** Words the calling domain allocates during [f ()], with
    observability off for the call and its prior state restored
    afterwards. Counted with [Gc.allocated_bytes], not
    [Gc.minor_words]: a large array is allocated straight in the major
    heap, where the minor counter would miss it. The minor heap is
    emptied at both ends of the window, because [Gc.counters], which
    [Gc.allocated_bytes] reads, counts the words of a partly filled
    minor heap inexactly (on OCaml 5.1 an unflushed window over a
    350 000-word run read 100 000 words off). So the count is a pure
    function of the code path, and a bound on it is a deterministic
    check of what a mode costs when it is off. *)
let allocated_words f =
  let was_on = Obs.enabled () in
  Obs.disable ();
  Fun.protect
    ~finally:(fun () -> if was_on then Obs.enable ())
    (fun () ->
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      ignore (Sys.opaque_identity (f ()));
      Gc.minor ();
      let after = Gc.allocated_bytes () in
      int_of_float ((after -. before) /. float_of_int (Sys.word_size / 8)))

(** What [allocated_words] may report for an [f] that allocates
    nothing: the measurement's own boxed counters, with slack. *)
let measure_words = 32

(* -- trace-driven test harness ------------------------------------------ *)

(** Run [f] inside a fresh trace with observability on (restoring the
    prior switch state afterwards, so suites behave the same under
    LCL_OBS=1). Returns [f ()]'s result, the collected spans, and the
    metric snapshot. *)
let with_trace ?ring_capacity f =
  let was_on = Obs.enabled () in
  Obs.enable ();
  Obs.reset ?ring_capacity ();
  let restore () =
    (* a custom ring capacity must not leak into later tests *)
    if ring_capacity <> None then
      Obs.Span.reset ~ring_capacity:Obs.Span.default_capacity ();
    if not was_on then Obs.disable ()
  in
  match f () with
  | x ->
    let events = Obs.Span.collect () in
    let metrics = Obs.Metrics.snapshot () in
    restore ();
    (x, events, metrics)
  | exception e ->
    restore ();
    raise e

(** Value of counter [name] in a snapshot; 0 when absent or zero. *)
let counter_value metrics name =
  match List.assoc_opt name metrics with
  | Some (Obs.Metrics.Counter_v v) -> v
  | _ -> 0

let assert_counter metrics name expected =
  Alcotest.(check int) ("counter " ^ name) expected (counter_value metrics name)

let span_count events name =
  List.length
    (List.filter (fun (e : Obs.Span.event) -> e.Obs.Span.name = name) events)

let assert_span_count events name expected =
  Alcotest.(check int) ("spans " ^ name) expected (span_count events name)
