(* sample-100k: Sampling.run with trivial2 on a seeded 10^5-node
   G(n,p) graph (average degree 8), jobs=1.

   The one workload where graph and instance construction and memory
   dominate: the three sampled phases evaluate few nodes, while the
   double cover, the promise check on it, Instance.make on 2*10^5
   nodes and the honest prover do most of the work. The decoder and
   the certificate search barely run.

   A repetition builds a graph and samples it, about a second in all,
   so a run makes about ten and the fastest is steady: the machine's
   slow spells last seconds. A 10^6-node graph takes 15 s to sample.

   Each repetition has a graph of its own, seeded from the run's seed
   and its index, because the build time depends on the seed: when
   the graph draws more edges than the builder's size hint expects,
   which about half the seeds do, the build takes a third longer.
   [setup_s] is therefore the mean over the run's graphs of each
   graph's median build time. *)

open Common
open Lcp
module Trace = Lcpbench.Trace
module Gate = Lcpbench.Gate

let nodes = 100_000
let model = "gnp"
let nominal = 1. (* seconds a repetition takes *)
let decoder = "trivial2"

let build cfg =
  match Lcp_graph.Random_graphs.of_model (Run_cfg.rng cfg) ~nodes model with
  | Ok g -> g
  | Error msg -> failwith msg

(* The seed of repetition [i]'s graph and sampling. *)
let rep_seed ctx i = Hashtbl.hash (ctx.seed, i)

(* Three builds of the same graph, the last of which is kept; the
   set-up time is their median. *)
let setup ctx ~seed =
  let last = ref None in
  let times =
    Array.init 3 (fun _ ->
        (* free the previous build, and the previous repetition's graph *)
        last := None;
        Gc.full_major ();
        let g, ns = timed (fun () -> build (cfg ~seed ())) in
        Gate.op ctx.gate "build gnp" [ Gate.eq "nodes" ~expected:nodes (Lcp_graph.Graph.order g) ];
        last := Some g;
        secs ns)
  in
  (Option.get !last, Lcpbench.Stats.median times)

let sample ?(suite = suite decoder) ~seed g =
  let cfg = cfg ~seed () in
  (Sampling.run ~cfg ~decoder ~model suite g, cfg)

let gate ctx (r : Sampling.report) =
  Gate.op ctx.gate "sample"
    [
      Gate.eq "violations" ~expected:0 r.Sampling.violations;
      (match r.completeness with
      | None -> Some "no completeness phase"
      | Some c ->
          Gate.holds
            (Printf.sprintf "completeness accepted %d of %d" c.accepted c.evaluated)
            (c.evaluated > 0 && c.accepted = c.evaluated));
      (match r.soundness with
      | None -> Some "no soundness phase"
      | Some s ->
          Gate.holds
            (Printf.sprintf "soundness rejected %d of %d trials" s.rejected_trials
               s.trials)
            (s.applicable && s.trials > 0 && s.rejected_trials = s.trials));
    ]

(* Everything in a report but its wall times. *)
let work (r : Sampling.report) =
  {
    r with
    build_wall_ns = 0;
    completeness =
      Option.map (fun c -> { c with Sampling.c_wall_ns = 0 }) r.completeness;
    soundness = Option.map (fun s -> { s with Sampling.s_wall_ns = 0 }) r.soundness;
    hiding = Option.map (fun h -> { h with Sampling.h_wall_ns = 0 }) r.hiding;
  }

let phases = [ "completeness"; "soundness"; "hiding" ]

let traced_layers ctx ~untraced ~wall_s =
  let tr = new_trace () in
  let seed = rep_seed ctx 0 in
  let g = Trace.span tr "random_graphs" (fun () -> build (cfg ~seed ())) in
  (* As many traced repetitions as untraced ones, each with its own
     decoder trace; the layers are those of the fastest. *)
  let reps =
    repeat ctx ~nominal (fun () ->
        let dtr = new_trace () in
        (dtr, sample ~suite:(wrap_decoder dtr decoder (suite decoder)) ~seed g))
  in
  List.iter
    (fun ((_, (r, _)), _) ->
      gate ctx r;
      Gate.op ctx.gate "trace fidelity sample"
        [ Gate.holds "report" (work r = work untraced) ])
    reps;
  let (dtr, (_, scfg)), traced_ns = fastest reps in
  let phase_ns p =
    match Lcp_obs.Metrics.span scfg.Run_cfg.metrics ("sample/" ^ p) with
    | Some (_, ns) -> ns
    | None -> 0
  in
  let unaccounted = traced_ns - List.fold_left (fun a p -> a + phase_ns p) 0 phases in
  (* standalone probes of the construction Sampling.run does inside
     its completeness phase, in the same order *)
  let s = suite decoder in
  let cover = Trace.span tr "builders.double_cover" (fun () -> Lcp_graph.Builders.double_cover g) in
  ignore (Trace.span tr "coloring.promise" (fun () -> s.Decoder.promise cover));
  let inst =
    Trace.span tr "instance" (fun () ->
        let inst = Lcp_local.Instance.make cover in
        ignore (s.Decoder.adversary_alphabet inst);
        inst)
  in
  ignore (Trace.span tr "prover.honest" (fun () -> s.Decoder.prover inst));
  let spans = Trace.spans tr in
  let span_s metric name = m metric "s" (secs (Trace.total_ns ~name spans)) in
  [
    span_s "random_graphs.wall_s" "random_graphs";
    span_s "builders.double_cover_s" "builders.double_cover";
    span_s "coloring.promise_s" "coloring.promise";
    span_s "instance.wall_s" "instance";
    span_s "prover.honest_s" "prover.honest";
    m "sampling.unaccounted_s" "s" (secs unaccounted);
  ]
  @ List.map (fun p -> m ("sampling." ^ p ^ "_s") "s" (secs (phase_ns p))) phases
  @ decoder_layers dtr
  @ trace_layers ~traced_s:(secs traced_ns) ~untraced_s:wall_s ~unaccounted_ns:unaccounted

let run ctx =
  let gc0 = Gc.quick_stat () in
  let samples, reps =
    List.split
      (List.init (repetitions ctx ~nominal) (fun i ->
           let seed = rep_seed ctx i in
           let g, setup_s = setup ctx ~seed in
           let r, ns = timed (fun () -> fst (sample ~seed g)) in
           gate ctx r;
           (setup_s, (r, ns))))
  in
  let gc = gc_layers gc0 in
  let setup_s = List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples) in
  let untraced = fst (List.hd reps) and wall_s = secs (fastest_ns reps) in
  let peak = peak_rss_mb "self" in
  let layers =
    if ctx.traced then gc @ traced_layers ctx ~untraced ~wall_s else []
  in
  let info =
    match untraced.Sampling.soundness with
    | Some s -> [ ("soundness_probes", float_of_int s.Sampling.probes) ]
    | None -> []
  in
  {
    e2e = [ m "setup_s" "s" setup_s; m "wall_s" "s" wall_s; m "peak_rss_mb" "MB" peak ];
    layers;
    info;
  }
