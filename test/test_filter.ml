(* Forward-checked certificate search: the decoders' declared necessary
   conditions against their oracle, the same decoder with the
   conditions cleared. Witnesses, accepted sets and verdicts must be
   identical on the exhaustive small corpus; honest certificates must
   pass every declared condition (completeness is never cut); the
   filter_pruned_branches counter must not depend on jobs, sharding or
   the executor. *)

open Lcp_graph
open Lcp_local
open Lcp
open Helpers
module Metrics_obs = Lcp_obs.Metrics

let filtered =
  List.filter
    (fun (e : Registry.entry) -> e.Registry.suite.Decoder.dec.Decoder.conditions <> None)
    Registry.all

let cleared (dec : Decoder.t) = { dec with Decoder.conditions = None }
let counter cfg name = Metrics_obs.counter cfg.Run_cfg.metrics name

(* The canonical configuration plus seeded port/id redraws. *)
let configurations ?(redraws = 3) rng g =
  Instance.make g :: List.init redraws (fun _ -> Instance.random rng g)

let small_corpus () =
  let rng = Random.State.make [| 1303 |] in
  List.concat_map
    (fun n -> List.concat_map (configurations rng) (Enumerate.classes n))
    [ 1; 2; 3 ]

let test_declaring_decoders () =
  Alcotest.(check (list string))
    "exactly the identifier-carrying decoders declare conditions"
    [ "shatter"; "spanning"; "watermelon" ]
    (List.sort compare (List.map (fun (e : Registry.entry) -> e.Registry.key) filtered))

let collect dec ~alphabet inst ~reject_covered =
  let acc = ref [] in
  Prover.iter_labelings_pruned dec ~alphabet inst ~reject_covered (fun lab ->
      acc := lab :: !acc);
  List.rev !acc

let test_differential () =
  let corpus = small_corpus () in
  List.iter
    (fun (e : Registry.entry) ->
      let suite = e.Registry.suite in
      let dec = suite.Decoder.dec in
      let oracle = cleared dec in
      let cuts = ref 0 in
      List.iter
        (fun inst ->
          let alphabet = suite.Decoder.adversary_alphabet inst in
          let where what =
            Format.asprintf "%s: %s on %a" e.Registry.key what Instance.pp inst
          in
          let fcfg = Run_cfg.make ~jobs:1 () and ocfg = Run_cfg.make ~jobs:1 () in
          let fw, ft = Prover.search_accepted ~cfg:fcfg dec ~alphabet inst in
          let ow, ot = Prover.search_accepted ~cfg:ocfg oracle ~alphabet inst in
          check_bool (where "witness identical") true (fw = ow);
          check_bool (where "tally never larger") true (ft <= ot);
          check_int (where "oracle cuts nothing") 0
            (counter ocfg "filter_pruned_branches");
          cuts := !cuts + counter fcfg "filter_pruned_branches";
          (* the direct decoding path applies the same filter *)
          let dcfg = Run_cfg.make ~jobs:1 ~eval_cache:false () in
          check_bool (where "direct-path witness identical") true
            (fst (Prover.search_accepted ~cfg:dcfg dec ~alphabet inst) = ow);
          check_int (where "count_accepted identical")
            (Prover.count_accepted oracle ~alphabet inst)
            (Prover.count_accepted dec ~alphabet inst);
          (* every node (the accepted set neighborhood graphs are built
             from), and partial coverage: only some nodes' rejections
             cut, so the filter may only check those nodes' conditions *)
          List.iter
            (fun (name, reject_covered) ->
              check_bool
                (where ("accepted set identical, " ^ name))
                true
                (collect dec ~alphabet inst ~reject_covered
                = collect oracle ~alphabet inst ~reject_covered))
            [
              ("every node", fun _ -> true);
              ("node 0 only", fun v -> v = 0);
              ("odd nodes", fun v -> v land 1 = 1);
            ];
          let verdict d =
            match
              Checker.soundness_exhaustive { suite with Decoder.dec = d } [ inst ]
            with
            | Checker.Pass { checked } -> Ok checked
            | Checker.Fail { instance; detail } -> Error (instance, detail)
          in
          check_bool (where "soundness verdict identical") true
            (verdict dec = verdict oracle))
        corpus;
      check_bool (e.Registry.key ^ ": the filter cuts somewhere") true (!cuts > 0))
    filtered

(* Sweep reports are identical too: same summary counters and
   counterexample with the filter on and off. *)
let test_sweep_reports_identical () =
  List.iter
    (fun (e : Registry.entry) ->
      let suite = e.Registry.suite in
      let sweep s =
        let cfg = Run_cfg.make ~jobs:1 () in
        let summary = Checker.soundness_sweep ~cfg s ~n:3 in
        (summary.Lcp_engine.Sweep.counters, summary.Lcp_engine.Sweep.counterexample)
      in
      check_bool (e.Registry.key ^ ": n=3 sweep report identical") true
        (sweep suite = sweep { suite with Decoder.dec = cleared suite.Decoder.dec }))
    filtered

let test_honest_labelings_pass () =
  let rng = Random.State.make [| 2718 |] in
  List.iter
    (fun (e : Registry.entry) ->
      let suite = e.Registry.suite in
      let certified = ref 0 in
      List.iter
        (fun n ->
          List.iter
            (fun g ->
              List.iter
                (fun inst ->
                  match Decoder.certify suite inst with
                  | None -> ()
                  | Some c ->
                      incr certified;
                      for u = 0 to Graph.order g - 1 do
                        match Decoder.violated_condition suite.Decoder.dec c u with
                        | None -> ()
                        | Some what ->
                            Alcotest.failf "%s: honest node %d fails %s on %a"
                              e.Registry.key u what Instance.pp c
                      done)
                (configurations ~redraws:2 rng g))
            (Enumerate.classes n))
        [ 1; 2; 3; 4; 5; 6 ];
      check_bool (e.Registry.key ^ ": promise instances certified") true
        (!certified > 0))
    filtered

(* filter_pruned_branches and labelings_checked: jobs=1, jobs=2 and an
   in-process 2-way sharded sweep (summed over shards) agree. *)
let test_counter_invariance () =
  List.iter
    (fun (e : Registry.entry) ->
      let run ?shard jobs =
        let cfg = Run_cfg.make ~jobs () in
        ignore (Checker.soundness_sweep ~cfg ?shard e.Registry.suite ~n:4);
        (counter cfg "filter_pruned_branches", counter cfg "labelings_checked")
      in
      let direct = run 1 in
      check_bool (e.Registry.key ^ ": cuts at n=4") true (fst direct > 0);
      check_bool (e.Registry.key ^ ": jobs=2 identical") true (run 2 = direct);
      let f0, l0 = run ~shard:(0, 2) 1 and f1, l1 = run ~shard:(1, 2) 1 in
      check_bool (e.Registry.key ^ ": shards sum to the direct run") true
        ((f0 + f1, l0 + l1) = direct))
    filtered

let suite =
  [
    case "the declaring decoders" test_declaring_decoders;
    case "filtered = cleared oracle on every class n <= 3" test_differential;
    case "sweep reports identical at n = 3" test_sweep_reports_identical;
    case "honest labelings pass every declared condition (n <= 6)"
      test_honest_labelings_pass;
    case "filter_pruned_branches is jobs- and shard-invariant"
      test_counter_invariance;
  ]
