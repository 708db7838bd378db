(* What every workload shares: the run context, the clock, the
   metric records main.exe prints, and process-level probes. *)

module Run_cfg = Lcp_obs.Run_cfg
module Metrics = Lcp_obs.Metrics

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  tmp : string;  (** scratch directory inside the checkout *)
  lcp_bin : string;  (** the [lcp] executable the serve workload spawns *)
  gate : Lcpbench.Gate.t;
}

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  e2e : metric list;  (** [setup_s], [wall_s], [peak_rss_mb] *)
  layers : metric list;  (** filled by the traced run only *)
  info : (string * float) list;
      (** reported, not gated: counters an optimisation may move *)
}

let now_ns = Lcp_obs.Clock.now_ns
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6
let m name unit_ value = { name; value; unit_ }
let count name v = m name "count" (float_of_int v)
let new_trace () = Lcpbench.Trace.create ~now:now_ns ()

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* The timed phase, repeated [round (seconds / nominal)] times (at
   least once), where [nominal] is the phase's length on the reference
   machine: the work done depends on --seconds only, never on how fast
   a run happens to go. *)
let repetitions ctx ~nominal = max 1 (Float.to_int (Float.round (ctx.seconds /. nominal)))
let repeat ctx ~nominal f = List.init (repetitions ctx ~nominal) (fun _ -> timed f)

(* The phase's wall is its fastest repetition: a shared machine's slow
   spells only ever add time. *)
let fastest reps =
  List.fold_left (fun (a, na) (b, nb) -> if nb < na then (b, nb) else (a, na)) (List.hd reps) reps

let fastest_ns reps = snd (fastest reps)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* A fresh jobs=1 cfg: the batch workloads run on one domain so the
   walls measure the program, not the scheduler of a shared 2-core
   machine. *)
let cfg ?(seed = Run_cfg.default.Run_cfg.seed) () = Run_cfg.make ~jobs:1 ~seed ()
let counter cfg name = Metrics.counter cfg.Run_cfg.metrics name

(* VmHWM (peak resident set) of a live process, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let gc_layers (before : Gc.stat) =
  let after = Gc.quick_stat () in
  [
    count "gc.major_collections" (after.Gc.major_collections - before.Gc.major_collections);
    m "gc.top_heap_mb" "MB"
      (float_of_int (after.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

let suite key =
  match Lcp.Registry.find key with
  | Some e -> e.Lcp.Registry.suite
  | None -> invalid_arg ("unknown decoder " ^ key)

(* The decoder with every evaluation timed into the trace's
   [decoder.<key>] leaf. Name, radius, anonymity and port invariance
   are kept, so acceptance-table keys and orbit pruning are those of
   the untraced run. *)
let wrap_decoder tr key (s : Lcp.Decoder.suite) =
  let l = Lcpbench.Trace.leaf_counter tr ("decoder." ^ key) in
  let dec = s.Lcp.Decoder.dec in
  { s with dec = { dec with accepts = Lcpbench.Trace.leaf tr l dec.accepts } }

let decoder_layers tr =
  let leaves = Lcpbench.Trace.leaves tr in
  let calls = List.fold_left (fun a l -> a + l.Lcpbench.Trace.calls) 0 leaves in
  let ns = List.fold_left (fun a l -> a + l.Lcpbench.Trace.ns) 0 leaves in
  count "decoder.calls" calls
  :: m "decoder.wall_s" "s" (secs ns)
  :: List.map
       (fun l ->
         m (l.Lcpbench.Trace.leaf_name ^ ".ns_per_call") "ns"
           (ratio l.Lcpbench.Trace.ns l.Lcpbench.Trace.calls))
       leaves

let eval_cache_layers ~hits ~misses ~shared_hits =
  [
    count "eval_cache.hits" hits;
    count "eval_cache.misses" misses;
    m "eval_cache.hit_ratio" "ratio" (ratio hits (hits + misses));
    count "eval_cache.shared_hits" shared_hits;
  ]

let trace_layers ~traced_s ~untraced_s ~unaccounted_ns =
  [
    m "trace.unaccounted_s" "s" (secs unaccounted_ns);
    m "trace.overhead" "ratio" (traced_s /. untraced_s);
  ]
