(* sweep-anon and sweep-ids: exhaustive soundness sweeps at jobs=1.

   sweep-anon (degree-one, n=7, checkpointed) loads enumeration,
   Aut(G) orbit pruning, acceptance tables and checkpoint writes;
   its certificates are cheap to decode. sweep-ids (shatter, spanning
   and watermelon, n=3) is the opposite: one class, tens of thousands
   of labelings per sweep, identifier-carrying certificates re-parsed
   on every decode, no orbit pruning and almost no table hits. Each is
   the control for optimisations aimed at the other. *)

open Common
open Lcp
open Lcp_local
module Sweep = Lcp_engine.Sweep
module Trace = Lcpbench.Trace
module Gate = Lcpbench.Gate

type spec = {
  n : int;
  decoders : string list;
  classes : int;  (** connected classes on n nodes, OEIS A001349 *)
  kept : int;  (** of which non-bipartite *)
  checkpointed : bool;
  setup_batch : int;
      (** cold enumerations per set-up sample, which is their mean: one
          n=3 enumeration takes microseconds, and timed alone it reads
          up to 40% apart between runs *)
  nominal_s : float;  (** length of one repetition of the timed phase *)
}

(* A repetition takes about a third of a second, so a run makes about
   thirty and the fastest of them is steady: the machine's slow spells
   last seconds. At n=8 the sweep takes 9 s, which would leave one
   repetition per run, its wall following the spells. *)
let anon =
  { n = 7; decoders = [ "degree-one" ]; classes = 853; kept = 809;
    checkpointed = true; setup_batch = 1; nominal_s = 0.35 }

(* A repetition takes about 0.07 s, so a run makes about 140 and
   the fastest of them is steady: the machine's slow spells last
   seconds. At n=4 the K4 searches alone take 9 s. *)
let ids =
  { n = 3; decoders = [ "shatter"; "spanning"; "watermelon" ]; classes = 2; kept = 1;
    checkpointed = false; setup_batch = 256; nominal_s = 0.07 }

(* The sweep's input preparation: the cold iso-class enumeration
   ({!Sweep.iso_classes} memoizes process-wide, so each sample clears
   the cache first). Each sample leaves the listing cached for the
   sweeps that follow it, as a real run would have it. *)
let enumerate ~cfg n =
  Sweep.clear_cache ();
  Sweep.iso_classes ~cfg ~connected:true n

let setup ctx spec =
  let cfg = cfg () in
  let classes, ns =
    timed (fun () ->
        for _ = 2 to spec.setup_batch do
          ignore (enumerate ~cfg spec.n)
        done;
        enumerate ~cfg spec.n)
  in
  Gate.op ctx.gate
    (Printf.sprintf "enumerate n=%d" spec.n)
    [ Gate.eq "classes" ~expected:spec.classes (List.length classes) ];
  secs ns /. float_of_int spec.setup_batch

type run = {
  key : string;
  summary : Instance.t Sweep.summary;
  cfg : Run_cfg.t;
  ckpt : string option;
}

(* Every sweep writes a checkpoint file of its own, so the gate reads
   the file that sweep left. *)
let sweeps_started = ref 0

let checkpoint ctx spec key =
  incr sweeps_started;
  if spec.checkpointed then
    Some
      {
        Lcp_engine.Checkpoint.path =
          Filename.concat ctx.tmp
            (Printf.sprintf "%s-n%d-%d.ckpt.json" key spec.n !sweeps_started);
        resume = false;
        tag = key;
      }
  else None

let untraced ctx spec key =
  let cfg = cfg () in
  let checkpoint = checkpoint ctx spec key in
  let summary = Checker.soundness_sweep ~cfg ?checkpoint (suite key) ~n:spec.n in
  { key; summary; cfg; ckpt = Option.map (fun p -> p.Lcp_engine.Checkpoint.path) checkpoint }

(* Checker.soundness_sweep's own check closure, with the two public
   calls it makes per class wrapped in spans. [saves] counts the
   checkpoint writes: one per finished chunk (on_chunk fires after
   each), plus the write of the empty state, if any, which shows as the
   file being there before the first chunk ends. *)
let traced ctx spec tr ~saves key =
  let cfg = cfg () in
  let s = wrap_decoder tr key (suite key) in
  let checkpoint = checkpoint ctx spec key in
  let chunks = ref 0 and initial = ref false in
  Run_cfg.count cfg ~by:0 "labelings_checked";
  let summary =
    Sweep.run ~cfg ?checkpoint
      ?on_chunk:
        (Option.map (fun _ ~completed:_ ~total:_ -> incr chunks) checkpoint)
      ~mode:Sweep.Exhaustive ~n:spec.n
      ~keep:(fun g -> not (Lcp_graph.Coloring.is_bipartite g))
      ~check:(fun g ->
        Option.iter
          (fun p ->
            if !chunks = 0 && Sys.file_exists p.Lcp_engine.Checkpoint.path then
              initial := true)
          checkpoint;
        let inst, alphabet =
          Trace.span tr "instance" (fun () ->
              let inst = Instance.make g in
              (inst, s.Decoder.adversary_alphabet inst))
        in
        let witness, inspected =
          Trace.span tr "prover" (fun () ->
              Prover.search_accepted ~cfg s.Decoder.dec ~alphabet inst)
        in
        Run_cfg.count cfg ~by:inspected "labelings_checked";
        Option.map (Instance.with_labels inst) witness)
      ()
  in
  saves := !saves + !chunks + Bool.to_int !initial;
  { key; summary; cfg; ckpt = Option.map (fun p -> p.Lcp_engine.Checkpoint.path) checkpoint }

let gate_run ctx spec r =
  let c = r.summary.Sweep.counters in
  let ckpt_checks =
    match r.ckpt with
    | None -> []
    | Some path -> (
        match Lcp_engine.Checkpoint.load path with
        | Error msg -> [ Some ("checkpoint: " ^ msg) ]
        | Ok ck ->
            [
              Gate.holds "checkpoint complete" ck.Lcp_engine.Checkpoint.complete;
              Gate.eq "checkpoint checked" ~expected:spec.kept ck.checked;
            ])
  in
  Gate.op ctx.gate
    (Printf.sprintf "sweep %s n=%d" r.key spec.n)
    ([
       Gate.holds "verdict pass"
         (Checker.is_pass (Checker.verdict_of_sweep r.summary));
       Gate.eq "classes" ~expected:spec.classes c.Sweep.classes;
       Gate.eq "kept" ~expected:spec.kept c.kept;
       Gate.eq "checked" ~expected:spec.kept c.checked;
       Gate.eq "passed" ~expected:spec.kept c.passed;
     ]
    @ ckpt_checks)

(* Counters an optimisation may legitimately change: reported, not
   gated against constants. *)
let moving_counters =
  [
    "labelings_checked"; "orbit_pruned_branches"; "eval_cache_hits";
    "eval_cache_misses"; "eval_cache_shared_hits";
  ]

let info runs =
  List.concat_map
    (fun r ->
      ( r.key ^ ".dedup_hits",
        float_of_int r.summary.Sweep.counters.Sweep.dedup_hits )
      :: List.map
           (fun name -> (r.key ^ "." ^ name, float_of_int (counter r.cfg name)))
           moving_counters)
    runs

(* The traced run must be the program the untraced run measured. *)
let fidelity ctx untraced traced =
  List.iter2
    (fun u t ->
      Gate.op ctx.gate
        ("trace fidelity " ^ u.key)
        (Gate.holds "summary counters"
           (u.summary.Sweep.counters = t.summary.Sweep.counters)
        :: Gate.holds "verdict"
             (Checker.is_pass (Checker.verdict_of_sweep u.summary)
             = Checker.is_pass (Checker.verdict_of_sweep t.summary))
        :: List.map
             (fun name ->
               Gate.eq name ~expected:(counter u.cfg name) (counter t.cfg name))
             moving_counters))
    untraced traced

(* Standalone probes, outside every timed phase. Each returns its
   metrics and the counts that the gate fixes, which go on the info
   line. *)
let orderly_layers spec =
  let ocfg = cfg () in
  let tr = new_trace () in
  ignore (Trace.span tr "orderly" (fun () -> enumerate ~cfg:ocfg spec.n));
  ( [
      m "orderly.wall_s" "s" (secs (Trace.total_ns ~name:"orderly" (Trace.spans tr)));
      count "orderly.candidates" (counter ocfg "candidates_generated");
      count "orderly.dedup_hits" (counter ocfg "dedup_hits");
    ],
    ("orderly.classes", float_of_int (counter ocfg "classes")) )

let auto_layers spec =
  let kept =
    List.filter
      (fun g -> not (Lcp_graph.Coloring.is_bipartite g))
      (Sweep.iso_classes ~connected:true spec.n)
  in
  let (), ns = timed (fun () -> List.iter (fun g -> ignore (Lcp_engine.Auto.of_graph g)) kept) in
  ([ m "auto.wall_s" "s" (secs ns) ], ("auto.calls", float_of_int (List.length kept)))

let checkpoint_layers ctx ~saves = function
  | { ckpt = Some path; _ } :: _ ->
      let ck =
        match Lcp_engine.Checkpoint.load path with
        | Ok ck -> ck
        | Error msg -> failwith msg
      in
      let probe = Filename.concat ctx.tmp "probe.ckpt.json" in
      let save_ms =
        Lcpbench.Stats.median_of_runs 21 (fun () ->
            ms (snd (timed (fun () -> Lcp_engine.Checkpoint.save ~path:probe ck))))
      in
      [
        count "checkpoint.saves" saves;
        m "checkpoint.bytes_per_save" "B" (float_of_int (Unix.stat probe).Unix.st_size);
        m "checkpoint.save_ms" "ms" save_ms;
      ]
  | _ -> []

let run ctx spec =
  let gc0 = Gc.quick_stat () in
  let samples, reps =
    List.split
      (List.init (repetitions ctx ~nominal:spec.nominal_s) (fun _ ->
           (* one set-up sample per repetition, spread over the run *)
           let s = setup ctx spec in
           let runs, ns = timed (fun () -> List.map (untraced ctx spec) spec.decoders) in
           List.iter (gate_run ctx spec) runs;
           (s, (runs, ns))))
  in
  let gc = gc_layers gc0 in
  let setup_s = Lcpbench.Stats.median (Array.of_list samples) in
  let untraced_runs = fst (List.hd reps) and wall_s = secs (fastest_ns reps) in
  let peak = peak_rss_mb "self" in
  let layers, probe_info =
    if not ctx.traced then ([], [])
    else begin
      (* As many traced repetitions as untraced ones; the layers are
         those of the fastest, the repetition wall_s reports. *)
      let reps =
        repeat ctx ~nominal:spec.nominal_s (fun () ->
            let tr = new_trace () and saves = ref 0 in
            (tr, saves, List.map (traced ctx spec tr ~saves) spec.decoders))
      in
      List.iter
        (fun ((_, _, runs), _) ->
          List.iter (gate_run ctx spec) runs;
          fidelity ctx untraced_runs runs)
        reps;
      let (tr, saves, traced_runs), traced_ns = fastest reps in
      let spans = Trace.spans tr in
      let total name = List.fold_left (fun a r -> a + counter r.cfg name) 0 traced_runs in
      let labelings = total "labelings_checked" in
      let prover_ns = Trace.total_ns ~name:"prover" spans in
      let orderly, classes = orderly_layers spec in
      let auto, calls = auto_layers spec in
      ( orderly @ auto
      @ [
          m "instance.wall_s" "s" (secs (Trace.total_ns ~name:"instance" spans));
          m "prover.wall_s" "s" (secs prover_ns);
          m "prover.self_s" "s" (secs (Trace.self_ns ~name:"prover" spans));
          count "prover.calls" (Trace.count ~name:"prover" spans);
          count "prover.labelings" labelings;
          count "prover.orbit_pruned" (total "orbit_pruned_branches");
          m "prover.ns_per_labeling" "ns" (ratio prover_ns labelings);
        ]
      @ eval_cache_layers ~hits:(total "eval_cache_hits")
          ~misses:(total "eval_cache_misses")
          ~shared_hits:(total "eval_cache_shared_hits")
      @ decoder_layers tr
      @ checkpoint_layers ctx ~saves:!saves traced_runs
      @ gc
      @ trace_layers ~traced_s:(secs traced_ns) ~untraced_s:wall_s
          ~unaccounted_ns:(Trace.unaccounted_ns ~wall_ns:traced_ns spans),
        [ classes; calls ] )
    end
  in
  {
    e2e =
      [ m "setup_s" "s" setup_s; m "wall_s" "s" wall_s; m "peak_rss_mb" "MB" peak ];
    layers;
    info = info untraced_runs @ probe_info;
  }
