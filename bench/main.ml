(* Benchmark harness: one bechamel micro-benchmark per experiment area
   (DESIGN.md Sec. 3's bench-target column) plus the printed series the
   paper's artifacts correspond to (neighborhood-graph sizes, check
   times, certificate sizes vs n).

   Run with: dune exec bench/main.exe            (full)
             dune exec bench/main.exe -- --fast  (shorter quota)

   The engine series run under one [Run_cfg.t]; the sweep series plus
   the run's aggregate metrics land in a schema-versioned JSON file
   (--metrics-out PATH, default BENCH_sweep.json). *)

open Lcp_graph
open Lcp_local
open Lcp

let rng = Random.State.make [| 424242 |]

(* One cfg for every engine-backed series below: recommended domain
   count, shared metrics registry. *)
let bench_cfg = Run_cfg.make ~seed:424242 ()

(* ------------------------------------------------------------------ *)
(* fixtures shared by the benchmarks                                    *)

let grid55 = Instance.make (Builders.grid 5 5)
let theta = Builders.theta 4 4 4

let certified suite g = Option.get (Decoder.certify suite (Instance.make g))
let d1_inst = certified D_degree_one.suite (Builders.path 8)
let cyc_inst = certified D_even_cycle.suite (Builders.cycle 8)
let union_inst = certified D_union.suite (Builders.path 8)
let shatter_inst = certified D_shatter.suite (Builders.path 8)
let wm_inst = certified D_watermelon.suite (Builders.watermelon [ 4; 4; 4 ])
let spanning_inst = certified D_spanning.suite (Builders.grid 3 3)
let trivial_inst = certified (D_trivial.suite ~k:2) (Builders.grid 3 3)

let d1_family =
  Neighborhood.exhaustive_family D_degree_one.suite
    ~graphs:
      (List.filter
         (fun g -> Coloring.is_bipartite g && Graph.min_degree g = 1)
         (Enumerate.connected_up_to_iso 4))
    ()

let extraction_family =
  let suite = D_trivial.suite ~k:2 in
  List.filter_map
    (fun g -> Decoder.certify suite (Instance.make g))
    [ Builders.path 4; Builders.path 5; Builders.cycle 4; Builders.cycle 6 ]

let extractor =
  Option.get
    (Extractor.of_verdict
       (Hiding.check ~k:2 (D_trivial.decoder ~k:2) extraction_family))

let rotation_instances =
  let g = Builders.path 5 in
  List.init 5 (fun k ->
      let ids = Array.init 5 (fun v -> 1 + ((k + v) mod 5)) in
      Instance.make g ~ids:(Ident.of_array ~bound:5 ids))

let accept_all =
  Decoder.make ~name:"accept-all" ~radius:1 ~anonymous:false (fun _ -> true)

(* ------------------------------------------------------------------ *)
(* bechamel tests (one per experiment id)                               *)

let stage = Bechamel.Staged.stage

let tests =
  let open Bechamel in
  [
    (* E1 *)
    Test.make ~name:"E1/forgetful-check-theta444"
      (stage (fun () -> Forgetful.is_r_forgetful theta ~r:1));
    Test.make ~name:"E1/escape-path-torus7x7"
      (let torus = Builders.torus 7 7 in
       stage (fun () -> Forgetful.escape_path torus ~r:1 ~v:0 ~u:1));
    (* E2 / E13 *)
    Test.make ~name:"E2/view-extract-r2-grid5x5"
      (stage (fun () -> View.extract grid55 ~r:2 12));
    Test.make ~name:"E2/view-key-anonymous"
      (let v = View.extract grid55 ~r:2 12 in
       stage (fun () -> View.key_anonymous v));
    Test.make ~name:"E13/sync-flood-r2-grid5x5"
      (stage (fun () -> Sync_runner.run grid55 ~rounds:2));
    (* E3-E8: decoder evaluation throughput (all nodes of one instance) *)
    Test.make ~name:"E3/decode-degree-one-P8"
      (stage (fun () -> Decoder.run D_degree_one.decoder d1_inst));
    Test.make ~name:"E4/decode-even-cycle-C8"
      (stage (fun () -> Decoder.run D_even_cycle.decoder cyc_inst));
    Test.make ~name:"E5/decode-union-P8"
      (stage (fun () -> Decoder.run D_union.decoder union_inst));
    Test.make ~name:"E6/decode-shatter-P8"
      (stage (fun () -> Decoder.run D_shatter.decoder shatter_inst));
    Test.make ~name:"E7/decode-watermelon-[4;4;4]"
      (stage (fun () -> Decoder.run D_watermelon.decoder wm_inst));
    Test.make ~name:"E8/decode-trivial-grid3x3"
      (stage (fun () -> Decoder.run (D_trivial.decoder ~k:2) trivial_inst));
    Test.make ~name:"E8/decode-spanning-grid3x3"
      (stage (fun () -> Decoder.run D_spanning.decoder spanning_inst));
    (* provers *)
    Test.make ~name:"E3/prove-degree-one-P8"
      (stage (fun () -> D_degree_one.prover d1_inst));
    Test.make ~name:"E6/prove-shatter-P8"
      (stage (fun () -> D_shatter.prover shatter_inst));
    Test.make ~name:"E7/prove-watermelon-[4;4;4]"
      (stage (fun () -> D_watermelon.prover wm_inst));
    (* E3: certificate search on a no-instance *)
    Test.make ~name:"E3/search-certificates-C5"
      (let c5 = Instance.make (Builders.cycle 5) in
       stage (fun () ->
           Prover.find_accepted D_degree_one.decoder
             ~alphabet:D_degree_one.alphabet c5));
    (* E8: neighborhood graph construction + hiding verdicts *)
    Test.make ~name:"E8/build-V(degree-one,4)"
      (stage (fun () -> Neighborhood.build D_degree_one.decoder d1_family));
    Test.make ~name:"E8/hiding-verdict-degree-one"
      (stage (fun () -> Hiding.check ~k:2 D_degree_one.decoder d1_family));
    Test.make ~name:"E8/extract-coloring-C6"
      (let c6 = List.nth extraction_family 3 in
       stage (fun () -> Extractor.extract extractor c6));
    (* E9: realizability pipeline *)
    Test.make ~name:"E9/realize-G_bad"
      (let nbhd = Neighborhood.build accept_all rotation_instances in
       let cyc = Option.get (Neighborhood.odd_cycle nbhd) in
       let h = Realizability.of_neighborhood nbhd cyc in
       let pool =
         List.concat_map
           (fun i -> Array.to_list (View.extract_all i ~r:1))
           rotation_instances
       in
       stage (fun () -> Realizability.lemma_5_1 accept_all ~pool h));
    (* E10: walk surgery *)
    Test.make ~name:"E10/edge-expansion-C12"
      (let wm = Builders.watermelon [ 6; 6 ] in
       stage (fun () -> Nb_walks.edge_expansion wm ~r:1 ~u:2 ~v:3));
    Test.make ~name:"E10/repair-backtracking-theta"
      (let tour = Walks.splice [ 0; 2; 3; 4; 1; 7; 6; 5 ] 1 [ 2; 0 ] in
       stage (fun () -> Nb_walks.repair_backtracking theta tour));
    (* E11: Ramsey *)
    Test.make ~name:"E11/arrows-6-(3,3)"
      (stage (fun () -> Ramsey.arrows ~n:6 ~s:3 ~t:3));
    (* E12 is a size series (printed below); adversaries: *)
    Test.make ~name:"E3/strong-random-500-trials"
      (let inst = Instance.make (Builders.pendant (Builders.cycle 3) 0) in
       stage (fun () ->
           Checker.strong_soundness_random D_degree_one.suite ~k:2 ~trials:500 rng
             [ inst ]));
    (* E14: SLOCAL *)
    Test.make ~name:"E14/slocal-greedy-petersen"
      (let inst = Instance.make (Builders.petersen ()) in
       stage (fun () -> Slocal.execute_canonical (Slocal.greedy_coloring ~radius:1) inst));
    (* E15: quantified hiding (exact search over extractors) *)
    Test.make ~name:"E15/quantified-best-extractor-C4"
      (let fam =
         Neighborhood.exhaustive_family D_even_cycle.suite
           ~graphs:[ Builders.cycle 4 ] ~ports:`All ()
       in
       let nbhd = Neighborhood.build D_even_cycle.decoder fam in
       stage (fun () -> Quantified.best_extractor ~k:2 nbhd fam));
    (* E16: the k = 3 decoder *)
    Test.make ~name:"E16/decode-hidden-leaf3-P8"
      (let inst =
         Option.get
           (Decoder.certify (D_hidden_leaf.suite ~k:3)
              (Instance.make (Builders.path 8)))
       in
       stage (fun () -> Decoder.run (D_hidden_leaf.decoder ~k:3) inst));
    (* E20: the 1-bit 2-round decoder *)
    Test.make ~name:"E20/decode-edge-bit-C8"
      (let inst =
         Option.get (Decoder.certify D_edge_bit.suite (Instance.make (Builders.cycle 8)))
       in
       stage (fun () -> Decoder.run D_edge_bit.decoder inst));
    (* E18: resilient wrapper *)
    Test.make ~name:"E18/decode-resilient-grid3x3"
      (let res = Resilient.wrap (D_trivial.suite ~k:2) in
       let inst =
         Option.get (Decoder.certify res (Instance.make (Builders.grid 3 3)))
       in
       stage (fun () -> Decoder.run res.Decoder.dec inst));
    (* E13: async runner *)
    Test.make ~name:"E13/async-quiescence-C8"
      (let inst = Instance.make (Builders.cycle 8) in
       stage (fun () -> Async_runner.run_to_quiescence inst));
    (* serialization *)
    Test.make ~name:"codec/instance-json-roundtrip"
      (let inst =
         Option.get
           (Decoder.certify D_shatter.suite (Instance.make (Builders.path 8)))
       in
       stage (fun () ->
           Codec.instance_of_json (Codec.instance_to_json inst)));
    (* substrate *)
    Test.make ~name:"substrate/two-color-grid8x8"
      (let g = Builders.grid 8 8 in
       stage (fun () -> Coloring.two_color g));
    Test.make ~name:"substrate/odd-cycle-petersen"
      (let g = Builders.petersen () in
       stage (fun () -> Coloring.odd_cycle g));
    Test.make ~name:"substrate/diameter-grid8x8"
      (let g = Builders.grid 8 8 in
       stage (fun () -> Metrics.diameter g));
  ]

(* ------------------------------------------------------------------ *)
(* bechamel driver                                                      *)

let run_benchmarks ~fast () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let quota = Time.second (if fast then 0.05 else 0.5) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  Printf.printf "%-42s %14s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 58 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "%-42s %14.1f\n%!" name ns)
        stats)
    tests

(* ------------------------------------------------------------------ *)
(* printed series (the shape results the paper's artifacts map to)      *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Every A/B series proves its two paths agree before quoting a
   speedup. Divergences are recorded here instead of tripping an
   [assert] mid-run: the remaining series still execute and report,
   and the driver exits non-zero at the end — a silent mismatch can
   never hide inside a green bench run, and a CI log shows every
   divergent row at once rather than the first. *)
let divergences : string list ref = ref []

let note_identical ~where identical =
  if not identical then divergences := where :: !divergences;
  identical

let series_neighborhood () =
  Printf.printf "\n== series: |V(D,n)| for the even-cycle decoder on C_n (E4/E8)\n";
  Printf.printf "%6s %10s %10s %12s %10s\n" "n" "instances" "|V|" "edges" "secs";
  List.iter
    (fun n ->
      let fam, secs =
        time (fun () ->
            Neighborhood.exhaustive_family D_even_cycle.suite
              ~graphs:[ Builders.cycle n ] ~ports:`All ())
      in
      let nbhd, secs2 =
        time (fun () -> Neighborhood.build D_even_cycle.decoder fam)
      in
      Printf.printf "%6d %10d %10d %12d %10.3f\n" n (List.length fam)
        (Neighborhood.order nbhd) (Neighborhood.size nbhd) (secs +. secs2))
    [ 4; 6; 8 ]

let series_cert_sizes () =
  Printf.printf "\n== series: honest certificate sizes in bits (E12)\n";
  Printf.printf "%6s %10s %10s %10s %10s %10s\n" "n" "trivial" "deg-one"
    "spanning" "shatter" "melon";
  List.iter
    (fun n ->
      let bits suite g =
        match Decoder.certify suite (Instance.make g) with
        | Some i -> string_of_int (Labeling.max_bits i.Instance.labels)
        | None -> "n/a" (* outside the promise class at this size *)
      in
      Printf.printf "%6d %10s %10s %10s %10s %10s\n" n
        (bits (D_trivial.suite ~k:2) (Builders.path n))
        (bits D_degree_one.suite (Builders.path n))
        (bits D_spanning.suite (Builders.path n))
        (bits D_shatter.suite (Builders.path n))
        (bits D_watermelon.suite (Builders.watermelon [ n; n ])))
    [ 4; 8; 16; 32 ]

let series_strong_checks () =
  Printf.printf
    "\n== series: exhaustive strong-soundness cost, degree-one decoder (E3)\n";
  Printf.printf "%6s %14s %10s\n" "n" "labelings" "secs";
  List.iter
    (fun n ->
      let g = Builders.path n in
      let inst = Instance.make g in
      let labelings = Labeling.count ~alphabet:D_degree_one.alphabet g in
      let verdict, secs =
        time (fun () ->
            Checker.strong_soundness_exhaustive D_degree_one.suite ~k:2 [ inst ])
      in
      assert (Checker.is_pass verdict);
      Printf.printf "%6d %14d %10.3f\n" n labelings secs)
    [ 3; 4; 5; 6 ]

let series_scaling () =
  Printf.printf "\n== series: decoder throughput on large rings (substrate scaling)\n";
  Printf.printf "%8s %12s %12s %10s\n" "n" "prove(ms)" "decode(ms)" "accept";
  List.iter
    (fun n ->
      let t0 = Unix.gettimeofday () in
      let inst =
        Option.get
          (Decoder.certify D_even_cycle.suite (Instance.make (Builders.cycle n)))
      in
      let t1 = Unix.gettimeofday () in
      let ok = Decoder.accepts_all D_even_cycle.decoder inst in
      let t2 = Unix.gettimeofday () in
      Printf.printf "%8d %12.1f %12.1f %10b\n" n
        ((t1 -. t0) *. 1000.0)
        ((t2 -. t1) *. 1000.0)
        ok)
    [ 100; 1000; 10000; 50000 ]

let series_engine_dedup ~fast () =
  Printf.printf
    "\n== series: iso-class enumeration, engine canonical dedup vs pairwise \
     Enumerate (tentpole)\n";
  Printf.printf "%6s %10s %12s %14s %14s\n" "n" "classes" "engine(s)"
    "enumerate(s)" "speedup";
  List.iter
    (fun n ->
      Lcp_engine.Sweep.clear_cache ();
      let engine_classes, engine_s =
        time (fun () ->
            Lcp_engine.Sweep.iso_classes ~cfg:(Run_cfg.sequential bench_cfg) n)
      in
      (* the pairwise path is O(classes * labeled graphs) brute-force
         isomorphism; past n=6 it stops being measurable in a bench *)
      if n <= 6 then begin
        let old_classes, old_s =
          time (fun () -> Enumerate.connected_up_to_iso n)
        in
        assert (List.length engine_classes = List.length old_classes);
        Printf.printf "%6d %10d %12.3f %14.3f %13.1fx\n" n
          (List.length engine_classes) engine_s old_s
          (old_s /. Float.max engine_s 1e-9)
      end
      else
        Printf.printf "%6d %10d %12.3f %14s %14s\n" n
          (List.length engine_classes) engine_s "(skipped)" "-")
    (if fast then [ 4; 5; 6 ] else [ 4; 5; 6; 7 ]);
  let again, cached_s =
    time (fun () ->
        Lcp_engine.Sweep.iso_classes ~cfg:(Run_cfg.sequential bench_cfg) 6)
  in
  let hits, misses = Lcp_engine.Sweep.cache_stats () in
  Printf.printf
    "   cross-sweep cache: re-listing n=6 takes %.6fs (%d classes; %d hits / \
     %d misses)\n"
    cached_s (List.length again) hits misses

(* The tentpole series: orderly generation vs the exhaustive mask
   scan, both sequential so the row is a strategy comparison, not a
   parallelism one. Returns the rows for BENCH_enumerate.json. *)
let series_enumerate ~fast () =
  Printf.printf
    "\n== series: class enumeration, orderly generation vs mask scan \
     (tentpole)\n";
  Printf.printf "%6s %10s %12s %14s %10s %10s\n" "n" "classes" "orderly(s)"
    "mask-scan(s)" "speedup" "identical";
  let rows =
    List.map
      (fun n ->
        let listing strategy =
          Lcp_engine.Sweep.clear_cache ();
          time (fun () ->
              Lcp_engine.Sweep.iso_classes
                ~cfg:(Run_cfg.sequential bench_cfg)
                ~strategy n)
        in
        let o, o_s = listing Lcp_engine.Sweep.Orderly in
        let m, m_s = listing Lcp_engine.Sweep.Mask_scan in
        let identical =
          note_identical
            ~where:(Printf.sprintf "enumerate n=%d" n)
            (List.length o = List.length m && List.for_all2 Graph.equal o m)
        in
        Printf.printf "%6d %10d %12.3f %14.3f %9.1fx %10b\n" n (List.length o)
          o_s m_s
          (m_s /. Float.max o_s 1e-9)
          identical;
        (n, List.length o, o_s, m_s, identical))
      (if fast then [ 4; 5; 6 ] else [ 5; 6; 7 ])
  in
  (* the new frontier, reachable by orderly generation alone: the
     n = 8 mask space (2^28) is ~128x the n = 7 one the scan already
     needs seconds for, so no mask-scan column *)
  if not fast then begin
    Lcp_engine.Sweep.clear_cache ();
    let o, o_s =
      time (fun () -> Lcp_engine.Sweep.iso_classes ~cfg:bench_cfg 8)
    in
    Printf.printf "%6d %10d %12.3f %14s %10s %10s\n" 8 (List.length o) o_s
      "(mask scan infeasible)" "-" "-"
  end;
  Lcp_engine.Sweep.clear_cache ();
  rows

(* Returns the printed rows so the driver can serialize them into
   BENCH_sweep.json alongside the aggregate metrics. *)
let series_engine_sweep ~fast () =
  Printf.printf
    "\n== series: engine soundness sweep, degree-one decoder, jobs=1 vs \
     jobs=%d (E3)\n"
    bench_cfg.Run_cfg.jobs;
  Printf.printf "%6s %8s %12s %12s %10s %10s\n" "n" "kept" "seq(s)" "par(s)"
    "speedup" "identical";
  List.map
    (fun n ->
      let sweep cfg =
        Lcp_engine.Sweep.clear_cache ();
        Checker.soundness_sweep ~cfg D_degree_one.suite ~n
      in
      let seq = sweep (Run_cfg.sequential bench_cfg) in
      let par = sweep bench_cfg in
      let identical =
        note_identical
          ~where:(Printf.sprintf "sweep n=%d" n)
          (Checker.verdict_of_sweep seq = Checker.verdict_of_sweep par
          && seq.Lcp_engine.Sweep.counters = par.Lcp_engine.Sweep.counters)
      in
      Printf.printf "%6d %8d %12.3f %12.3f %9.2fx %10b\n" n
        seq.Lcp_engine.Sweep.counters.Lcp_engine.Sweep.kept
        seq.Lcp_engine.Sweep.wall_s par.Lcp_engine.Sweep.wall_s
        (seq.Lcp_engine.Sweep.wall_s /. Float.max par.Lcp_engine.Sweep.wall_s 1e-9)
        identical;
      let kept = seq.Lcp_engine.Sweep.counters.Lcp_engine.Sweep.kept in
      (n, kept, seq.Lcp_engine.Sweep.wall_s, par.Lcp_engine.Sweep.wall_s,
       identical))
    (if fast then [ 4; 5 ] else [ 4; 5; 6 ])

(* The PR-5 tentpole series: certificate search with per-node
   acceptance tables (the default) vs the direct view-extraction
   oracle. Both runs are sequential over the same connected
   non-bipartite classes and must agree on every (witness, tally)
   pair; the row is a memoization comparison, not a parallelism one.
   Returns the rows for BENCH_search.json. *)
let series_search ~fast () =
  Printf.printf
    "\n== series: soundness certificate search, acceptance tables vs direct \
     decoding (tentpole)\n";
  Printf.printf "%-12s %4s %8s %12s %12s %10s %10s\n" "decoder" "n" "classes"
    "memo(s)" "direct(s)" "speedup" "identical";
  let memo_cfg = Run_cfg.sequential bench_cfg in
  let direct_cfg = Run_cfg.with_eval_cache memo_cfg false in
  let suites =
    [
      ("degree-one", D_degree_one.suite);
      ("even-cycle", D_even_cycle.suite);
      ("trivial2", D_trivial.suite ~k:2);
      ("edge-bit", D_edge_bit.suite);
    ]
  in
  let sizes = if fast then [ 4; 5 ] else [ 4; 5; 6 ] in
  List.concat_map
    (fun (name, suite) ->
      List.map
        (fun n ->
          Lcp_engine.Sweep.clear_cache ();
          let classes =
            List.filter
              (fun g -> not (Coloring.is_bipartite g))
              (Lcp_engine.Sweep.iso_classes ~cfg:memo_cfg n)
          in
          let search cfg g =
            let inst = Instance.make g in
            let alphabet = suite.Decoder.adversary_alphabet inst in
            Prover.search_accepted ~cfg suite.Decoder.dec ~alphabet inst
          in
          let run cfg = time (fun () -> List.map (search cfg) classes) in
          let memo_res, memo_s = run memo_cfg in
          let direct_res, direct_s = run direct_cfg in
          let identical =
            note_identical
              ~where:(Printf.sprintf "search %s n=%d" name n)
              (memo_res = direct_res)
          in
          Printf.printf "%-12s %4d %8d %12.3f %12.3f %9.1fx %10b\n" name n
            (List.length classes) memo_s direct_s
            (direct_s /. Float.max memo_s 1e-9)
            identical;
          (name, n, List.length classes, memo_s, direct_s, identical))
        sizes)
    suites

(* Forward checking: the decoders that declare necessary node/edge
   conditions, searched with them (the default) and with them cleared
   (the oracle). Sequential, same classes; witnesses must agree on
   every class. Labelings are the summed search tallies; cuts are the
   filter_pruned_branches counter. n = 4 runs only in the full bench:
   the cleared watermelon search alone takes about 2.5 min there.
   Returns the rows for BENCH_search.json's forward_check array. *)
let series_forward_check ~fast () =
  Printf.printf
    "\n== series: certificate search, forward-checked vs cleared conditions \
     (tentpole)\n";
  Printf.printf "%-12s %4s %8s %12s %12s %12s %12s %10s %10s\n" "decoder" "n"
    "classes" "filtered(s)" "cleared(s)" "labelings" "cleared_lab" "cuts"
    "identical";
  let suites =
    [
      ("watermelon", D_watermelon.suite);
      ("shatter", D_shatter.suite);
      ("spanning", D_spanning.suite);
    ]
  in
  let sizes = if fast then [ 3 ] else [ 3; 4 ] in
  List.concat_map
    (fun n ->
      let classes =
        List.filter
          (fun g -> not (Coloring.is_bipartite g))
          (Lcp_engine.Sweep.iso_classes n)
      in
      List.map
        (fun (name, suite) ->
          let run dec =
            let cfg = Run_cfg.make ~jobs:1 () in
            let res, wall =
              time (fun () ->
                  List.map
                    (fun g ->
                      let inst = Instance.make g in
                      let alphabet = suite.Decoder.adversary_alphabet inst in
                      Prover.search_accepted ~cfg dec ~alphabet inst)
                    classes)
            in
            ( List.map fst res,
              wall,
              List.fold_left (fun a (_, t) -> a + t) 0 res,
              Lcp_obs.Metrics.counter cfg.Run_cfg.metrics "filter_pruned_branches" )
          in
          let dec = suite.Decoder.dec in
          let fw, f_s, f_lab, cuts = run dec in
          let cw, c_s, c_lab, _ = run { dec with Decoder.conditions = None } in
          let identical =
            note_identical
              ~where:(Printf.sprintf "forward-check %s n=%d" name n)
              (fw = cw)
          in
          Printf.printf "%-12s %4d %8d %12.4f %12.4f %12d %12d %10d %10b\n" name n
            (List.length classes) f_s c_s f_lab c_lab cuts identical;
          (name, n, List.length classes, f_s, c_s, f_lab, c_lab, cuts, identical))
        suites)
    sizes

(* The PR-9 tentpole series: certificate search quotiented by Aut(G)
   node-orbits (the default) vs the direct full-space search. Both
   paths run sequentially with the same acceptance-table setting and
   must return bit-identical witnesses on every class (tallies
   legitimately shrink under pruning, so only witnesses are compared).
   Each row sums per-class searches over every connected non-bipartite
   class at that order and quotes the aggregate wall ratio, exactly
   like the acceptance-table series above; the cross-row geometric
   mean is the headline BENCH_orbit.json records. The decoders are the
   eligible ones with real per-class search volume — the trivial
   family's whole space is |Σ|^n = 64–128 evaluations, over in well
   under a millisecond, where the quotient has nothing to amortize
   against (~1.0x; its correctness is still pinned classwise by
   test/test_orbit.ml). Each class is searched [reps] times per path
   so per-class walls clear timer resolution. *)
let series_orbit ~fast () =
  Printf.printf
    "\n== series: certificate search, orbit pruning vs direct (tentpole)\n";
  Printf.printf "%-12s %4s %8s %12s %12s %10s %10s\n" "decoder" "n" "classes"
    "orbit(s)" "direct(s)" "speedup" "identical";
  let on_cfg = Run_cfg.sequential bench_cfg in
  let off_cfg = Run_cfg.with_orbit_prune on_cfg false in
  let suites =
    [
      ("degree-one", D_degree_one.suite);
      ("hidden-leaf2", D_hidden_leaf.suite ~k:2);
      ("hidden-leaf3", D_hidden_leaf.suite ~k:3);
    ]
  in
  let sizes = if fast then [ 5; 6 ] else [ 6; 7 ] in
  let rows =
    List.concat_map
      (fun (name, suite) ->
        List.map
          (fun n ->
            Lcp_engine.Sweep.clear_cache ();
            let classes =
              List.filter
                (fun g -> not (Coloring.is_bipartite g))
                (Lcp_engine.Sweep.iso_classes ~cfg:on_cfg n)
            in
            let reps = if n >= 7 then 3 else 20 in
            let search cfg g =
              let inst = Instance.make g in
              let alphabet = suite.Decoder.adversary_alphabet inst in
              let t0 = Unix.gettimeofday () in
              let last = ref None in
              for _ = 1 to reps do
                let witness, _ =
                  Prover.search_accepted ~cfg suite.Decoder.dec ~alphabet inst
                in
                last := Some witness
              done;
              (Option.get !last, Unix.gettimeofday () -. t0)
            in
            let per_class =
              List.map (fun g -> (search on_cfg g, search off_cfg g)) classes
            in
            let identical =
              note_identical
                ~where:(Printf.sprintf "orbit %s n=%d" name n)
                (List.for_all
                   (fun ((w_on, _), (w_off, _)) -> w_on = w_off)
                   per_class)
            in
            let orbit_s =
              List.fold_left (fun a ((_, s), _) -> a +. s) 0. per_class
            in
            let direct_s =
              List.fold_left (fun a (_, (_, s)) -> a +. s) 0. per_class
            in
            let speedup = direct_s /. Float.max orbit_s 1e-9 in
            Printf.printf "%-12s %4d %8d %12.3f %12.3f %9.2fx %10b\n" name n
              (List.length classes) orbit_s direct_s speedup identical;
            (name, n, List.length classes, orbit_s, direct_s, speedup, identical))
          sizes)
      suites
  in
  let geomean =
    exp
      (List.fold_left (fun a (_, _, _, _, _, s, _) -> a +. log s) 0. rows
      /. float_of_int (max 1 (List.length rows)))
  in
  Printf.printf "   geometric mean across rows: %.2fx\n" geomean;
  (rows, geomean)

(* The sharded-sweep wall-clock figure: the full n=8 degree-one sweep
   vs its two halves under [shard], whose kept counts must partition
   the full run's and whose verdicts must agree. Skipped under --fast
   (the full row alone is ~20s). *)
let series_orbit_shards ~fast () =
  if fast then None
  else begin
    Printf.printf
      "\n== series: sharded n=8 soundness sweep, degree-one (tentpole)\n";
    Printf.printf "%10s %8s %12s\n" "slice" "kept" "wall(s)";
    let n = 8 in
    let sweep ?shard () =
      Lcp_engine.Sweep.clear_cache ();
      Checker.soundness_sweep ~cfg:bench_cfg ?shard D_degree_one.suite ~n
    in
    let full = sweep () in
    let s0 = sweep ~shard:(0, 2) () in
    let s1 = sweep ~shard:(1, 2) () in
    let kept s = s.Lcp_engine.Sweep.counters.Lcp_engine.Sweep.kept in
    let wall s = s.Lcp_engine.Sweep.wall_s in
    List.iter
      (fun (slice, s) ->
        Printf.printf "%10s %8d %12.3f\n" slice (kept s) (wall s))
      [ ("full", full); ("shard 0/2", s0); ("shard 1/2", s1) ];
    let identical =
      note_identical ~where:"orbit shards n=8"
        (kept s0 + kept s1 = kept full
        && Checker.is_pass (Checker.verdict_of_sweep full)
        && Checker.is_pass (Checker.verdict_of_sweep s0)
        && Checker.is_pass (Checker.verdict_of_sweep s1))
    in
    Some (n, kept full, wall full, kept s0, wall s0, kept s1, wall s1, identical)
  end

(* ------------------------------------------------------------------ *)
(* BENCH_sweep.json: the sweep series plus the run's metrics            *)

let bench_schema_version = 1

let write_sweep_json path rows =
  let ns s = int_of_float (s *. 1e9) in
  let row (n, kept, seq_s, par_s, identical) =
    Json.Obj
      [
        ("n", Json.Int n);
        ("kept", Json.Int kept);
        ("seq_wall_ns", Json.Int (ns seq_s));
        ("par_wall_ns", Json.Int (ns par_s));
        ("identical", Json.Bool identical);
      ]
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int bench_schema_version);
        ("jobs", Json.Int bench_cfg.Run_cfg.jobs);
        ("sweep", Json.List (List.map row rows));
        ("metrics", Lcp_obs.Metrics.to_json bench_cfg.Run_cfg.metrics);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_string oc "\n");
  Printf.printf "sweep series + metrics written to %s\n" path

let write_enumerate_json path rows =
  let ns s = int_of_float (s *. 1e9) in
  let row (n, classes, orderly_s, mask_s, identical) =
    Json.Obj
      [
        ("n", Json.Int n);
        ("classes", Json.Int classes);
        ("orderly_wall_ns", Json.Int (ns orderly_s));
        ("mask_scan_wall_ns", Json.Int (ns mask_s));
        ("identical", Json.Bool identical);
      ]
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int bench_schema_version);
        ("jobs", Json.Int 1);
        ("enumerate", Json.List (List.map row rows));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_string oc "\n");
  Printf.printf "enumerate series written to %s\n" path

let write_search_json path rows forward_rows =
  let ns s = int_of_float (s *. 1e9) in
  let forward_row
      (decoder, n, classes, filtered_s, cleared_s, labelings, cleared_labelings,
       cuts, identical) =
    Json.Obj
      [
        ("decoder", Json.String decoder);
        ("n", Json.Int n);
        ("classes", Json.Int classes);
        ("filtered_wall_ns", Json.Int (ns filtered_s));
        ("cleared_wall_ns", Json.Int (ns cleared_s));
        ("labelings", Json.Int labelings);
        ("cleared_labelings", Json.Int cleared_labelings);
        ("filter_pruned_branches", Json.Int cuts);
        ("identical", Json.Bool identical);
      ]
  in
  let row (decoder, n, classes, memo_s, direct_s, identical) =
    Json.Obj
      [
        ("decoder", Json.String decoder);
        ("n", Json.Int n);
        ("classes", Json.Int classes);
        ("memoized_wall_ns", Json.Int (ns memo_s));
        ("direct_wall_ns", Json.Int (ns direct_s));
        ("identical", Json.Bool identical);
      ]
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int bench_schema_version);
        ("jobs", Json.Int 1);
        ("search", Json.List (List.map row rows));
        ("forward_check", Json.List (List.map forward_row forward_rows));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_string oc "\n");
  Printf.printf "search series written to %s\n" path

let write_orbit_json path ((rows, geomean), shard_row) =
  let ns s = int_of_float (s *. 1e9) in
  let row (decoder, n, classes, orbit_s, direct_s, speedup, identical) =
    Json.Obj
      [
        ("decoder", Json.String decoder);
        ("n", Json.Int n);
        ("classes", Json.Int classes);
        ("orbit_wall_ns", Json.Int (ns orbit_s));
        ("direct_wall_ns", Json.Int (ns direct_s));
        ("speedup_x100", Json.Int (int_of_float (speedup *. 100.)));
        ("identical", Json.Bool identical);
      ]
  in
  let shard_json =
    match shard_row with
    | None -> Json.Null
    | Some (n, kept, full_s, kept0, s0_s, kept1, s1_s, identical) ->
        Json.Obj
          [
            ("n", Json.Int n);
            ("kept", Json.Int kept);
            ("full_wall_ns", Json.Int (ns full_s));
            ("shard0_kept", Json.Int kept0);
            ("shard0_wall_ns", Json.Int (ns s0_s));
            ("shard1_kept", Json.Int kept1);
            ("shard1_wall_ns", Json.Int (ns s1_s));
            ("identical", Json.Bool identical);
          ]
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int bench_schema_version);
        ("jobs", Json.Int bench_cfg.Run_cfg.jobs);
        ("geomean_speedup_x100", Json.Int (int_of_float (geomean *. 100.)));
        ("orbit", Json.List (List.map row rows));
        ("shards", shard_json);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_string oc "\n");
  Printf.printf "orbit series written to %s\n" path

(* The PR-6 tentpole series: request latency against a live lcp serve
   daemon on a temp socket, cold (first request, caches empty) vs warm
   (repeats against the daemon's persistent iso-class and acceptance-
   table caches). The protocol overhead itself is the ping row.
   Returns rows for BENCH_serve.json. *)
let series_serve ~fast () =
  Printf.printf "\n== series: lcp serve request latency, cold vs warm (tentpole)\n";
  Printf.printf "%-22s %6s %10s %10s %10s %10s\n" "request" "count" "cold(ms)"
    "p50(ms)" "p95(ms)" "req/s";
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp-bench-%d.sock" (Unix.getpid ()))
  in
  Lcp_engine.Sweep.clear_cache ();
  let server =
    Lcp_serve.Server.start
      (Lcp_serve.Server.default_config ~socket_path)
  in
  let percentile sorted p =
    let len = Array.length sorted in
    sorted.(min (len - 1) (int_of_float (p *. float_of_int (len - 1) +. 0.5)))
  in
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Lcp_serve.Server.stop server;
        Lcp_serve.Server.wait server)
      (fun () ->
        Lcp_serve.Client.with_connection socket_path (fun c ->
            let one req =
              let t0 = Unix.gettimeofday () in
              (match Lcp_serve.Client.request c req with
              | Ok { Lcp_serve.Protocol.status = Lcp_serve.Protocol.Done; _ } ->
                  ()
              | Ok r ->
                  failwith
                    ("bench request failed: "
                    ^ Lcp_serve.Protocol.status_name r.Lcp_serve.Protocol.status)
              | Error e -> failwith e);
              Unix.gettimeofday () -. t0
            in
            let job kind =
              { Lcp_serve.Protocol.kind; opts = Lcp_serve.Protocol.default_opts }
            in
            let series (name, req, count) =
              let cold = one req in
              let warm = Array.init count (fun _ -> one req) in
              let total = cold +. Array.fold_left ( +. ) 0. warm in
              Array.sort compare warm;
              let p50 = percentile warm 0.50 and p95 = percentile warm 0.95 in
              let rps = float_of_int (count + 1) /. total in
              Printf.printf "%-22s %6d %10.3f %10.3f %10.3f %10.0f\n" name
                (count + 1) (cold *. 1e3) (p50 *. 1e3) (p95 *. 1e3) rps;
              (name, count + 1, cold, p50, p95, rps)
            in
            List.map series
              [
                ("ping", job Lcp_serve.Protocol.Ping, if fast then 50 else 500);
                ( "check-degree-one-C5",
                  job
                    (Lcp_serve.Protocol.Check
                       { decoder = "degree-one"; graph = "cycle:5" }),
                  if fast then 10 else 50 );
                ( "sweep-degree-one-n5",
                  job
                    (Lcp_serve.Protocol.Sweep
                       {
                         decoder = "degree-one";
                         n = 5;
                         strategy = "orderly";
                         early_exit = false;
                         shards = 1;
                       }),
                  if fast then 5 else 25 );
              ]))
  in
  Lcp_engine.Sweep.clear_cache ();
  rows

let write_serve_json path rows =
  let ns s = int_of_float (s *. 1e9) in
  let row (name, requests, cold_s, p50_s, p95_s, rps) =
    Json.Obj
      [
        ("request", Json.String name);
        ("requests", Json.Int requests);
        ("cold_wall_ns", Json.Int (ns cold_s));
        ("warm_p50_ns", Json.Int (ns p50_s));
        ("warm_p95_ns", Json.Int (ns p95_s));
        ("requests_per_sec", Json.Int (int_of_float rps));
      ]
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int bench_schema_version);
        ("serve", Json.List (List.map row rows));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_string oc "\n");
  Printf.printf "serve series written to %s\n" path

(* The PR-10 tentpole series: the coordinator's scaling story at one
   fixed partition (degree-one, shards=4, n=8; n=6 under --fast).
   Three supervised runs at workers = 1 / 2 / 4 give the scaling
   curve; a raw baseline forks the same four shard subprocesses with
   no supervision (the manual shell recipe the coordinator replaces)
   to price its overhead; and a recovery row SIGKILLs one worker
   mid-sweep to price restart-from-checkpoint. Every run's merged
   report must be byte-identical. Returns the BENCH_coord.json
   document, or None when the sibling lcp binary is not built. *)
let series_coord ~fast () =
  let bin =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"
  in
  if not (Sys.file_exists bin) then begin
    Printf.printf "\n== series: coordinated sweeps skipped (%s not built)\n"
      bin;
    None
  end
  else begin
    let n = if fast then 6 else 8 in
    let shards = 4 in
    Printf.printf
      "\n== series: coordinated n=%d soundness sweep, degree-one, shards=%d \
       (tentpole)\n"
      n shards;
    Printf.printf "%-28s %12s %10s %10s\n" "run" "wall(s)" "launched"
      "restarts";
    let fresh_dir =
      let c = ref 0 in
      fun () ->
        incr c;
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "lcp-bench-coord-%d-%d" (Unix.getpid ()) !c)
        in
        Unix.mkdir d 0o700;
        d
    in
    let rm_rf d =
      if Sys.file_exists d then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
          (Sys.readdir d);
        try Unix.rmdir d with Unix.Unix_error _ -> ()
      end
    in
    let coord ?inject_kill ~workers () =
      let dir = fresh_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let config =
        {
          (Lcp_serve.Coordinator.default_config ~decoder:"degree-one" ~n
             ~shards ~dir)
          with
          Lcp_serve.Coordinator.workers;
          executor = Lcp_serve.Coordinator.Subprocess { bin };
          poll_s = 0.01;
          backoff_base_s = 0.01;
          inject_kill;
        }
      in
      match Lcp_serve.Coordinator.run config with
      | Error msg -> failwith ("bench coord: " ^ msg)
      | Ok o -> o
    in
    (* the manual recipe: all four shard shells at once, no supervisor *)
    let raw () =
      let dir = fresh_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let shard_path i =
        Filename.concat dir (Printf.sprintf "shard-%d.json" i)
      in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let t0 = Unix.gettimeofday () in
      let pids =
        List.init shards (fun i ->
            Unix.create_process bin
              [|
                bin; "sweep"; "degree-one";
                "-n"; string_of_int n;
                "-j"; "1";
                "--shards"; string_of_int shards;
                "--shard"; string_of_int i;
                "--checkpoint"; shard_path i;
              |]
              devnull devnull devnull)
      in
      List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
      let wall = Unix.gettimeofday () -. t0 in
      Unix.close devnull;
      let cks =
        List.init shards (fun i ->
            match Lcp_engine.Checkpoint.load (shard_path i) with
            | Ok ck -> ck
            | Error e -> failwith ("bench coord raw: " ^ e))
      in
      match Lcp_engine.Checkpoint.merge cks with
      | Error e -> failwith ("bench coord raw merge: " ^ e)
      | Ok merged ->
          ( wall,
            Json.to_string_pretty (Lcp_engine.Checkpoint.report_json merged) )
    in
    let runs = List.map (fun w -> (w, coord ~workers:w ())) [ 1; 2; 4 ] in
    List.iter
      (fun (w, o) ->
        Printf.printf "%-28s %12.3f %10d %10d\n"
          (Printf.sprintf "coordinator workers=%d" w)
          o.Lcp_serve.Coordinator.wall_s o.Lcp_serve.Coordinator.launched
          o.Lcp_serve.Coordinator.restarts)
      runs;
    let raw_wall, raw_report = raw () in
    Printf.printf "%-28s %12.3f %10d %10s\n" "raw shard shells" raw_wall
      shards "-";
    let recovery = coord ~inject_kill:0 ~workers:4 () in
    Printf.printf "%-28s %12.3f %10d %10d\n" "recovery (SIGKILL shard 0)"
      recovery.Lcp_serve.Coordinator.wall_s
      recovery.Lcp_serve.Coordinator.launched
      recovery.Lcp_serve.Coordinator.restarts;
    let report o = Json.to_string_pretty o.Lcp_serve.Coordinator.report in
    let identical =
      note_identical ~where:"coord merged reports"
        (List.for_all
           (fun r -> String.equal r raw_report)
           (report recovery :: List.map (fun (_, o) -> report o) runs))
    in
    Some
      ( n,
        shards,
        List.map (fun (w, o) -> (w, o.Lcp_serve.Coordinator.wall_s)) runs,
        raw_wall,
        recovery.Lcp_serve.Coordinator.wall_s,
        recovery.Lcp_serve.Coordinator.restarts,
        identical )
  end

let write_coord_json path doc =
  match doc with
  | None -> Printf.printf "coord series skipped; %s not written\n" path
  | Some
      (n, shards, worker_rows, raw_wall, recovery_wall, recovery_restarts,
       identical) ->
      let ns s = int_of_float (s *. 1e9) in
      let full_width_wall =
        match List.assoc_opt shards worker_rows with
        | Some w -> w
        | None -> raw_wall
      in
      let doc =
        Json.Obj
          [
            ("schema_version", Json.Int bench_schema_version);
            ("decoder", Json.String "degree-one");
            ("n", Json.Int n);
            ("shards", Json.Int shards);
            ( "workers",
              Json.List
                (List.map
                   (fun (w, wall) ->
                     Json.Obj
                       [
                         ("workers", Json.Int w);
                         ("wall_ns", Json.Int (ns wall));
                       ])
                   worker_rows) );
            ("raw_shards_wall_ns", Json.Int (ns raw_wall));
            ( "coordinator_overhead_ns",
              Json.Int (ns (full_width_wall -. raw_wall)) );
            ( "recovery",
              Json.Obj
                [
                  ("wall_ns", Json.Int (ns recovery_wall));
                  ("restarts", Json.Int recovery_restarts);
                ] );
            ("identical", Json.Bool identical);
          ]
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Json.to_string_pretty doc);
          output_string oc "\n");
      Printf.printf "coord series written to %s\n" path

let series_sync () =
  Printf.printf
    "\n== series: flooding vs View.extract, random connected graphs (E13)\n";
  Printf.printf "%6s %8s %10s %10s\n" "n" "rounds" "messages" "match";
  List.iter
    (fun n ->
      let g = Builders.random_connected rng n 0.2 in
      let inst = Instance.random rng g in
      List.iter
        (fun r ->
          Printf.printf "%6d %8d %10d %10b\n" n r
            (Sync_runner.messages_sent g ~rounds:r)
            (Sync_runner.knowledge_matches_view inst ~r))
        [ 1; 2 ])
    [ 8; 16; 24 ]

(* ------------------------------------------------------------------ *)
(* The PR-7 large series (opt-in via --large, out of the default run):
   graph-build throughput, sampled certification throughput and the
   CSR-vs-list traversal A/B on 10^5..10^6-node instances, written to
   BENCH_large.json. The list side of the A/B materializes
   [Graph.neighbors] per query — the seed representation's access
   pattern — so the speedup column is the cross-PR baseline for
   substrate changes.                                                   *)

let peak_rss_kb () =
  (* VmHWM from /proc/self/status; absent off Linux *)
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          if String.length line >= 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Some kb)
          else scan ()
        in
        try scan () with End_of_file -> None)
  with Sys_error _ -> None

(* Traversal workload: sum of neighbor ids over every node. The CSR
   side folds in place; the list side materializes the per-node list
   first, as every pre-CSR hot loop did. *)
let traverse_csr g =
  let acc = ref 0 in
  for v = 0 to Graph.order g - 1 do
    Graph.iter_neighbors (fun w -> acc := !acc + w) g v
  done;
  !acc

let traverse_list g =
  let acc = ref 0 in
  for v = 0 to Graph.order g - 1 do
    List.iter (fun w -> acc := !acc + w) (Graph.neighbors g v)
  done;
  !acc

let series_large ~fast () =
  Printf.printf "\n== series: large sampled workload (CSR substrate)\n";
  let build_rows =
    let sizes = if fast then [ 100_000 ] else [ 100_000; 1_000_000 ] in
    List.concat_map
      (fun model ->
        List.map
          (fun nodes ->
            let rng = Random.State.make [| 7; nodes |] in
            let g, secs =
              time (fun () ->
                  match Random_graphs.of_model rng ~nodes model with
                  | Ok g -> g
                  | Error msg -> failwith msg)
            in
            let n = Graph.order g and m = Graph.size g in
            Printf.printf
              "   build %-6s n=%8d m=%9d %8.3fs (%.2e nodes/s, %.2e edges/s)\n"
              model n m secs
              (float_of_int n /. secs)
              (float_of_int m /. secs);
            (model, g, secs))
          sizes)
      [ "gnp"; "ba" ]
  in
  (* traversal A/B on the largest gnp instance *)
  let g_big =
    let pick (model, g, _) acc =
      match acc with
      | Some (_, h, _) when Graph.order h >= Graph.order g -> acc
      | _ when model = "gnp" -> Some (model, g, 0.)
      | _ -> acc
    in
    match List.fold_right pick build_rows None with
    | Some (_, g, _) -> g
    | None -> assert false
  in
  let sum_list, list_s = time (fun () -> traverse_list g_big) in
  let sum_csr, csr_s = time (fun () -> traverse_csr g_big) in
  assert (sum_list = sum_csr);
  Printf.printf
    "   traversal n=%d: list %.3fs vs csr %.3fs (%.1fx, identical sums)\n"
    (Graph.order g_big) list_s csr_s
    (list_s /. Float.max csr_s 1e-9);
  (* sampled certification throughput through the standard phases *)
  let sample_cfg = Run_cfg.make ~seed:7 () in
  let eval_nodes = 50_000 in
  let report, sample_s =
    time (fun () ->
        Sampling.run ~eval_nodes ~trials:4 ~pairs:1_000 ~cfg:sample_cfg
          ~decoder:"trivial2" ~model:"gnp" (D_trivial.suite ~k:2) g_big)
  in
  let evaluated =
    match report.Sampling.completeness with
    | Some c -> c.Sampling.evaluated
    | None -> 0
  in
  Printf.printf "   sample trivial2 n=%d: %d evals in %.3fs (%.2e nodes/s)\n"
    (Graph.order g_big) evaluated sample_s
    (float_of_int evaluated /. Float.max sample_s 1e-9);
  (* the small n=8 sweep A/B figure: same traversal workload over the
     whole n=8 (n=7 under --fast) iso-class corpus *)
  let n8 = if fast then 7 else 8 in
  let classes, enum_s =
    time (fun () ->
        Lcp_engine.Sweep.iso_classes ~cfg:(Run_cfg.sequential sample_cfg) n8)
  in
  let reps = 200 in
  let sweep_list, n8_list_s =
    time (fun () ->
        let acc = ref 0 in
        for _ = 1 to reps do
          List.iter (fun g -> acc := !acc + traverse_list g) classes
        done;
        !acc)
  in
  let sweep_csr, n8_csr_s =
    time (fun () ->
        let acc = ref 0 in
        for _ = 1 to reps do
          List.iter (fun g -> acc := !acc + traverse_csr g) classes
        done;
        !acc)
  in
  assert (sweep_list = sweep_csr);
  Printf.printf
    "   n=%d sweep corpus (%d classes, %d reps): list %.3fs vs csr %.3fs \
     (%.1fx)\n"
    n8 (List.length classes) reps n8_list_s n8_csr_s
    (n8_list_s /. Float.max n8_csr_s 1e-9);
  (match peak_rss_kb () with
  | Some kb -> Printf.printf "   peak RSS: %d kB\n" kb
  | None -> Printf.printf "   peak RSS: unavailable (no /proc)\n");
  let ns s = int_of_float (s *. 1e9) in
  Json.Obj
    [
      ("schema_version", Json.Int bench_schema_version);
      ("jobs", Json.Int sample_cfg.Run_cfg.jobs);
      ( "build",
        Json.List
          (List.map
             (fun (model, g, secs) ->
               let n = Graph.order g and m = Graph.size g in
               Json.Obj
                 [
                   ("model", Json.String model);
                   ("nodes", Json.Int n);
                   ("edges", Json.Int m);
                   ("wall_ns", Json.Int (ns secs));
                   ("nodes_per_sec", Json.Int (int_of_float (float_of_int n /. Float.max secs 1e-9)));
                   ("edges_per_sec", Json.Int (int_of_float (float_of_int m /. Float.max secs 1e-9)));
                 ])
             build_rows) );
      ( "traversal",
        Json.Obj
          [
            ("nodes", Json.Int (Graph.order g_big));
            ("edges", Json.Int (Graph.size g_big));
            ("list_wall_ns", Json.Int (ns list_s));
            ("csr_wall_ns", Json.Int (ns csr_s));
            ("speedup", Json.String (Printf.sprintf "%.2f" (list_s /. Float.max csr_s 1e-9)));
          ] );
      ( "sample",
        Json.Obj
          [
            ("decoder", Json.String "trivial2");
            ("nodes", Json.Int (Graph.order g_big));
            ("evaluated", Json.Int evaluated);
            ("wall_ns", Json.Int (ns sample_s));
            ("nodes_per_sec", Json.Int (int_of_float (float_of_int evaluated /. Float.max sample_s 1e-9)));
            ("violations", Json.Int report.Sampling.violations);
          ] );
      ( "sweep_n8_ab",
        Json.Obj
          [
            ("n", Json.Int n8);
            ("classes", Json.Int (List.length classes));
            ("reps", Json.Int reps);
            ("enumerate_wall_ns", Json.Int (ns enum_s));
            ("list_wall_ns", Json.Int (ns n8_list_s));
            ("csr_wall_ns", Json.Int (ns n8_csr_s));
            ("speedup", Json.String (Printf.sprintf "%.2f" (n8_list_s /. Float.max n8_csr_s 1e-9)));
          ] );
      ( "peak_rss_kb",
        match peak_rss_kb () with Some kb -> Json.Int kb | None -> Json.Null );
    ]

let write_large_json path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_string oc "\n");
  Printf.printf "large series written to %s\n" path

(* ------------------------------------------------------------------ *)
(* The PR-8 race series: what the instrumented sync layer costs. The
   disarmed column is the price every ordinary run pays for the
   tracing hooks (one relaxed Atomic.get branch per operation — the
   zero-cost-when-off claim, measured); the armed column is the price
   [lcp race] pays while recording (period 0: tracing without
   perturbation pauses). Returns rows for BENCH_race.json.             *)

let series_race ~fast () =
  Printf.printf "\n== series: sync instrumentation overhead (armed vs disarmed)\n";
  Printf.printf "%12s %10s %14s %14s %8s\n" "op" "iters" "disarmed_ns" "armed_ns"
    "ratio";
  let iters = if fast then 200_000 else 1_000_000 in
  let module Sync = Lcp_obs.Sync in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let measure name op =
    let disarmed = time (fun () -> for _ = 1 to iters do op () done) in
    Sync.arm ~perturb:{ Sync.pseed = 0; period = 0 } ();
    let armed = time (fun () -> for _ = 1 to iters do op () done) in
    ignore (Sync.disarm ());
    let per s = s /. float_of_int iters *. 1e9 in
    let ratio = if disarmed > 0. then armed /. disarmed else 0. in
    Printf.printf "%12s %10d %14.1f %14.1f %8.1f\n" name iters (per disarmed)
      (per armed) ratio;
    (name, iters, per disarmed, per armed, ratio)
  in
  let m = Sync.mutex "bench/race.lock" in
  let a = Sync.A.make "bench/race.counter" 0 in
  let v = Sync.Var.make "bench/race.var" 0 in
  let r1 = measure "with_lock" (fun () -> Sync.with_lock m (fun () -> ())) in
  let r2 = measure "atomic_incr" (fun () -> Sync.A.incr a) in
  let r3 = measure "var_set" (fun () -> Sync.Var.set v 1) in
  [ r1; r2; r3 ]

let write_race_json path rows =
  let row (name, iters, disarmed_ns, armed_ns, ratio) =
    Json.Obj
      [
        ("op", Json.String name);
        ("iters", Json.Int iters);
        ("disarmed_ns_per_op", Json.Int (int_of_float disarmed_ns));
        ("armed_ns_per_op", Json.Int (int_of_float armed_ns));
        ("armed_over_disarmed_x100", Json.Int (int_of_float (ratio *. 100.)));
      ]
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int bench_schema_version);
        ("race", Json.List (List.map row rows));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_string oc "\n");
  Printf.printf "race series written to %s\n" path

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let large = Array.exists (fun a -> a = "--large") Sys.argv in
  let metrics_out =
    let out = ref "BENCH_sweep.json" in
    Array.iteri
      (fun i a ->
        if a = "--metrics-out" && i + 1 < Array.length Sys.argv then
          out := Sys.argv.(i + 1))
      Sys.argv;
    !out
  in
  Printf.printf "LCP benchmark harness (bechamel)%s\n\n"
    (if fast then " [fast]" else "");
  if large then begin
    (* --large runs ONLY the large series: it is CI's large-smoke step,
       not part of the default bench (tier-1 time unchanged). *)
    let doc = series_large ~fast () in
    write_large_json
      (Filename.concat (Filename.dirname metrics_out) "BENCH_large.json")
      doc;
    exit 0
  end;
  run_benchmarks ~fast ();
  series_neighborhood ();
  series_cert_sizes ();
  series_strong_checks ();
  series_scaling ();
  series_engine_dedup ~fast ();
  let enumerate_rows = series_enumerate ~fast () in
  let search_rows = series_search ~fast () in
  let forward_rows = series_forward_check ~fast () in
  let orbit_rows = series_orbit ~fast () in
  let orbit_shards = series_orbit_shards ~fast () in
  let sweep_rows = series_engine_sweep ~fast () in
  let serve_rows = series_serve ~fast () in
  let coord_doc = series_coord ~fast () in
  let race_rows = series_race ~fast () in
  series_sync ();
  write_sweep_json metrics_out sweep_rows;
  write_coord_json
    (Filename.concat (Filename.dirname metrics_out) "BENCH_coord.json")
    coord_doc;
  write_race_json
    (Filename.concat (Filename.dirname metrics_out) "BENCH_race.json")
    race_rows;
  write_serve_json
    (Filename.concat (Filename.dirname metrics_out) "BENCH_serve.json")
    serve_rows;
  write_enumerate_json
    (Filename.concat (Filename.dirname metrics_out) "BENCH_enumerate.json")
    enumerate_rows;
  write_search_json
    (Filename.concat (Filename.dirname metrics_out) "BENCH_search.json")
    search_rows forward_rows;
  write_orbit_json
    (Filename.concat (Filename.dirname metrics_out) "BENCH_orbit.json")
    (orbit_rows, orbit_shards);
  match List.rev !divergences with
  | [] -> Printf.printf "\nbench done.\n"
  | ds ->
      Printf.printf "\nbench FAILED: %d A/B divergence(s): %s\n"
        (List.length ds) (String.concat ", " ds);
      exit 1
