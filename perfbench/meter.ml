(* Measurement primitives shared by the workloads: a monotonic
   nanosecond clock, the host probe, order statistics, peak RSS, GC
   counter deltas and the one-line JSON result. *)

(* [Monotonic_clock.now] is a noalloc clock_gettime(CLOCK_MONOTONIC)
   stub returning an unboxed int64, so reading it inside a per-node
   loop allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_s () = float_of_int (now_ns ()) *. 1e-9

let ms_of_ns ns = float_of_int ns *. 1e-6

(* Taken when this module initialises, before any workload code runs:
   the start of the first set-up. *)
let process_start = now_s ()

(* Cost of one clock read, as the median gap between two back-to-back
   reads. Every traced interval [t1 - t0] also contains one such read,
   so tracing subtracts it per interval. *)
let clock_cost_ns =
  lazy
    (let gaps =
       Array.init 20_001 (fun _ ->
           let a = now_ns () in
           let b = now_ns () in
           b - a)
     in
     Array.sort compare gaps;
     gaps.(10_000))

(* Tracing overhead, in percent: the share of a replay's time spent
   reading the clock, [clock_reads] reads of [clock_cost_ns] each. *)
let trace_overhead_pct ~clock_reads ~replay_ns =
  100.
  *. float_of_int (clock_reads * Lazy.force clock_cost_ns)
  /. float_of_int (max 1 replay_ns)

(* -- host probes --------------------------------------------------------- *)

(* Two fixed kernels whose time moves only when the host does, so a
   shift in them between two sets of runs is host drift, not a code
   change. The register-only kernel (xorshift, no memory traffic)
   tracks the CPU alone; on a VM sharing its L3 and memory bandwidth
   with other tenants the allocation kernel also tracks the slowdowns
   that reach allocation-heavy work, which the first one misses. *)
let probe_kernel iters =
  let x = ref 0x9E3779B9 and acc = ref 0 in
  for _ = 1 to iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + (!x land 0xff)
  done;
  !acc

(* Short-lived two-element lists, about a thousand kept alive at a
   time, so minor collections promote some of them. *)
let alloc_kernel iters =
  let live = ref [] in
  for i = 1 to iters do
    live := [ i; i + 1 ] :: (if i land 1023 = 0 then [] else !live)
  done;
  List.length !live

let probe_sink = ref 0

(* Median of five timings of a kernel, in ms. *)
let probe_ms kernel iters =
  let t =
    Array.init 5 (fun _ ->
        let t0 = now_ns () in
        probe_sink := !probe_sink + kernel iters;
        ms_of_ns (now_ns () - t0))
  in
  Array.sort compare t;
  t.(2)

(* (register-only, allocation) probe times in ms. *)
let host_probe_ms () =
  (probe_ms probe_kernel 2_000_000, probe_ms alloc_kernel 1_000_000)

(* -- order statistics ---------------------------------------------------- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile xs 0.5

(* One line of order statistics, for the human-readable notes. *)
let spread_line xs =
  if xs = [] then "-"
  else
    let mean = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
    Printf.sprintf "min %.3f p10 %.3f p25 %.3f p50 %.3f mean %.3f p90 %.3f p99 %.3f max %.3f"
      (percentile xs 0.) (percentile xs 0.1) (percentile xs 0.25) (percentile xs 0.5) mean
      (percentile xs 0.9) (percentile xs 0.99) (percentile xs 1.)

(* Requests per second in the fastest of [windows], each the time in
   ms of [requests] consecutive requests of the same composition.
   Contention from other tenants of the host only ever slows a window
   down, and it comes and goes within seconds and across minutes, so
   the fastest window tracks the program's own speed where the rate
   over the whole phase tracks how busy the host was. *)
let peak_rate ~requests windows =
  match windows with
  | [] -> 0.
  | _ -> float_of_int requests *. 1000. /. List.fold_left min infinity windows

(* -- memory ---------------------------------------------------------------- *)

(* Peak resident set (VmHWM) of [pid] in MB (2^20 bytes). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line ->
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          else scan ()
      in
      scan ())

(* -- GC counters ------------------------------------------------------------ *)

(* Words allocated in the minor heap, words promoted, major cycles: at
   one domain these repeat for the same inputs, so they are the counts a
   later claim can rest on. [Gc.minor_words] counts up to the current
   allocation pointer; the [quick_stat] field only moves at each minor
   collection, one minor heap (2 MB) at a time. *)
type gc = { minor_words : float; promoted_words : float; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major = b.major - a.major;
  }

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* -- result line ------------------------------------------------------------ *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

(* The last line of stdout, the machine-readable result. *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Human-readable lines go to stdout before the result line. *)
let note fmt = Printf.printf (fmt ^^ "\n%!")
