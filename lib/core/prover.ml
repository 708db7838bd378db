open Lcp_graph
open Lcp_local

(* ------------------------------------------------------------------ *)
(* assignment order and coverage schedule                              *)

(* Ball-completion order: repeatedly pick the center whose radius-r
   ball has the fewest unassigned nodes left (ties to the smallest
   center), then assign its missing nodes in ascending order. Coverage
   pruning can only fire once some ball is fully labeled, so finishing
   the cheapest ball first moves the first checkable node as high up
   the backtracking tree as possible. Deterministic by construction. *)
let ball_completion_order g ~r =
  let n = Graph.order g in
  let balls = Array.init n (fun u -> Metrics.ball g u r) in
  let assigned = Array.make n false in
  let completed = Array.make n false in
  let order = Array.make n 0 in
  let pos = ref 0 in
  let remaining c =
    List.fold_left (fun k w -> if assigned.(w) then k else k + 1) 0 balls.(c)
  in
  for _ = 1 to n do
    let best = ref (-1) and best_rem = ref max_int in
    for c = 0 to n - 1 do
      if not completed.(c) then begin
        let rem = remaining c in
        if rem < !best_rem then begin
          best := c;
          best_rem := rem
        end
      end
    done;
    let c = !best in
    List.iter
      (fun w ->
        if not assigned.(w) then begin
          assigned.(w) <- true;
          order.(!pos) <- w;
          incr pos
        end)
      balls.(c);
    completed.(c) <- true
  done;
  assert (!pos = n);
  order

(* Nodes whose entire radius-r ball lies within the first [i + 1]
   assigned nodes become checkable at step [i] of the given order. *)
let coverage_schedule g ~r ~order =
  let n = Graph.order g in
  let step_of = Array.make n 0 in
  Array.iteri (fun i v -> step_of.(v) <- i) order;
  let newly_covered = Array.make n [] in
  for u = 0 to n - 1 do
    let ball = Metrics.ball g u r in
    let last = List.fold_left (fun acc w -> max acc step_of.(w)) 0 ball in
    newly_covered.(last) <- u :: newly_covered.(last)
  done;
  Array.map List.rev newly_covered

(* ------------------------------------------------------------------ *)
(* the pruned iteration driver                                         *)

let count_eval_stats cfg lease =
  match cfg with
  | None -> ()
  | Some c ->
      (* materialize the counters so memoized, direct and warm runs
         serialize the same key set *)
      Run_cfg.count c ~by:0 "eval_cache_hits";
      Run_cfg.count c ~by:0 "eval_cache_misses";
      Run_cfg.count c ~by:0 "eval_cache_shared_hits";
      (match lease with
      | None -> ()
      | Some l ->
          (* the delta since acquire: independent of how warm a shared
             cache already was when this search leased it *)
          let hits, misses = Lcp_engine.Eval_cache.lease_stats l in
          Run_cfg.count c ~by:hits "eval_cache_hits";
          Run_cfg.count c ~by:misses "eval_cache_misses";
          if Lcp_engine.Eval_cache.lease_warm l then
            Run_cfg.count c "eval_cache_shared_hits")

let use_eval_cache = function
  | Some c -> c.Run_cfg.eval_cache
  | None -> true

let use_orbit_prune = function
  | Some c -> c.Run_cfg.orbit_prune
  | None -> true

(* Orbit pruning is sound only for decoders whose per-node verdicts
   are invariant under the graph's automorphisms: anonymous (no id
   reads) and port-invariant (no port reads) — then the verdict
   depends only on the labeled isomorphism type of the view, so
   acceptance of [L] and [L . sigma] coincide for sigma in Aut(G). *)
let orbit_eligible dec (inst : Instance.t) =
  dec.Decoder.anonymous && dec.Decoder.port_invariant
  && Instance.order inst <= Lcp_engine.Canon.max_order

(* Prefix-minimality programs for [inst]'s graph along the
   ball-completion order, or [None] when pruning is off, ineligible,
   or the graph is rigid (the common case: no programs, no cost). *)
let orbit_constraints ?cfg dec (inst : Instance.t) =
  if not (use_orbit_prune cfg && orbit_eligible dec inst) then None
  else
    let g = inst.Instance.graph in
    let auto = Lcp_engine.Auto.of_graph g in
    if Lcp_engine.Auto.is_trivial auto then None
    else
      let order = ball_completion_order g ~r:dec.Decoder.radius in
      match Lcp_engine.Auto.prefix_programs auto ~order with
      | [||] -> None
      | progs -> Some progs

(* Everything a memoized verdict depends on besides the labels: the
   decoder (name + radius stand in for its identity — names are unique
   across the registry), the alphabet, and the full configured graph
   (structure, identifiers, ports). Labels are the table's own key
   dimension and are deliberately excluded. *)
let share_key dec ~alphabet (inst : Instance.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b dec.Decoder.name;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int dec.Decoder.radius);
  Buffer.add_char b '|';
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    alphabet;
  Buffer.add_char b '|';
  let g = inst.Instance.graph in
  Buffer.add_string b (string_of_int (Lcp_graph.Graph.order g));
  Lcp_graph.Graph.iter_edges
    (fun u v ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b '-';
      Buffer.add_string b (string_of_int v))
    g;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int inst.Instance.ids.Ident.bound);
  Array.iter
    (fun id ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int id))
    inst.Instance.ids.Ident.ids;
  Buffer.add_char b '|';
  Array.iter
    (fun row ->
      Buffer.add_char b ';';
      Array.iter
        (fun w ->
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int w))
        row)
    inst.Instance.ports;
  Buffer.contents b

let acquire_cache dec ~alphabet inst =
  Lcp_engine.Eval_cache.acquire
    ~key:(share_key dec ~alphabet inst)
    ~radius:dec.Decoder.radius ~accepts:dec.Decoder.accepts ~alphabet inst

(* Forward checking against the decoder's declared necessary
   conditions ({!Decoder.checks}): the moment step [i] assigns node
   [v], cut the branch if [v] fails its unary condition, or if the
   pairwise condition fails in either direction across an edge to an
   already-assigned neighbor — each direction only for a node whose
   rejection cuts ([reject_covered]). A failed necessary condition
   means that node rejects in every completion, so only branches with
   no accepted completion are lost: witnesses, counts and verdicts
   equal the unfiltered search's. The alphabet is parsed once, and
   each condition is evaluated at most once per (node, rank) or
   (directed edge, rank pair): memo bytes are 0 unknown, 1 pass,
   2 fail. [rk.(j)] is the alphabet rank at step [j]. *)
let forward_checks dec ~alphabet (inst : Instance.t) ~order ~rk ~reject_covered
    =
  match dec.Decoder.conditions with
  | None -> None
  | Some (Decoder.Conditions c) ->
      let g = inst.Instance.graph in
      let n = Array.length order in
      let parsed = Array.of_list (List.map c.Decoder.parse alphabet) in
      let m = Array.length parsed in
      let covered = Array.init n reject_covered in
      let memo tbl key eval =
        match Bytes.unsafe_get tbl key with
        | '\001' -> true
        | '\002' -> false
        | _ ->
            let ok = eval () in
            Bytes.unsafe_set tbl key (if ok then '\001' else '\002');
            ok
      in
      let node_fails =
        match c.Decoder.node_ok with
        | None -> fun _ _ -> false
        | Some ok ->
            let tbl = Bytes.make (n * m) '\000' in
            fun v k ->
              covered.(v)
              && not (memo tbl ((v * m) + k) (fun () -> ok inst v parsed.(k)))
      in
      let edge_fails =
        match c.Decoder.edge_ok with
        | None -> fun _ _ -> false
        | Some ok ->
            let step_of = Array.make n 0 in
            Array.iteri (fun i v -> step_of.(v) <- i) order;
            (* per step: the earlier-assigned neighbors, each with its
               two directed-edge tables (allocated on first use) *)
            let earlier =
              Array.map
                (fun v ->
                  Graph.fold_neighbors
                    (fun w acc ->
                      if step_of.(w) < step_of.(v) then
                        (w, step_of.(w), ref Bytes.empty, ref Bytes.empty)
                        :: acc
                      else acc)
                    g v []
                  |> List.rev |> Array.of_list)
                order
            in
            let check tbl u ku w kw =
              if Bytes.length !tbl = 0 then tbl := Bytes.make (m * m) '\000';
              memo !tbl ((ku * m) + kw) (fun () ->
                  ok inst u parsed.(ku) w parsed.(kw))
            in
            fun i k ->
              let v = order.(i) in
              Array.exists
                (fun (w, j, v_to_w, w_to_v) ->
                  let kw = rk.(j) in
                  (covered.(v) && not (check v_to_w v k w kw))
                  || (covered.(w) && not (check w_to_v w kw v k)))
                earlier.(i)
      in
      Some (fun i -> node_fails order.(i) rk.(i) || edge_fails i rk.(i))

let iter_pruned ?tally ?sym ?cfg dec ~alphabet (inst : Instance.t)
    ~reject_covered f =
  let g = inst.Instance.graph in
  let r = dec.Decoder.radius in
  let order = ball_completion_order g ~r in
  let schedule = coverage_schedule g ~r ~order in
  (* [rk.(i)] holds the alphabet rank of the symbol currently at step
     [i]: the prune re-runs on every (re)assignment, so reads of
     earlier steps always see the current value — one string hash per
     assignment, none inside the orbit walks or the forward checks.
     Only paid when one of those two is active. *)
  let rk = Array.make (max (Array.length order) 1) 0 in
  let filter = forward_checks dec ~alphabet inst ~order ~rk ~reject_covered in
  let rank =
    if sym = None && filter = None then None
    else begin
      let rank : (string, int) Hashtbl.t = Hashtbl.create 8 in
      List.iteri
        (fun i s -> if not (Hashtbl.mem rank s) then Hashtbl.add rank s i)
        alphabet;
      Some rank
    end
  in
  (* symmetry breaking: cut a branch as soon as the just-assigned node
     violates one of its orbit constraints — every completion shares
     the violation, so only non-orbit-minimal labelings are lost.
     Cuts (orbit and filter alike) are tallied locally and flushed into
     the metrics in one batch at the end: a per-cut [Run_cfg.count]
     would take the registry lock inside the hottest loop of the
     search. *)
  let sym_cuts = ref 0 and filter_cuts = ref 0 in
  let sym_rejects =
    match sym with
    | None -> fun _ -> false
    | Some progs ->
        let np = Array.length progs in
        (* programs arrive sorted by activation step (the first step
           at which a walk can be conclusive), so the scan stops at
           the first not-yet-active program *)
        let act =
          Array.map
            (fun prog ->
              let s, e = prog.(0) in
              max s e)
            progs
        in
        fun i ->
          let cut = ref false in
          let pi = ref 0 in
          while (not !cut) && !pi < np && act.(!pi) <= i do
            let prog = progs.(!pi) in
            let m = Array.length prog in
            let j = ref 0 in
            let walking = ref true in
            while !walking && !j < m do
              let s, e = prog.(!j) in
              if s > i || e > i then walking := false
              else if rk.(s) > rk.(e) then begin
                cut := true;
                walking := false
              end
              else if rk.(s) < rk.(e) then walking := false
              else incr j
            done;
            incr pi
          done;
          !cut
  in
  let lease =
    if use_eval_cache cfg then Some (acquire_cache dec ~alphabet inst) else None
  in
  let branch_rejects =
    match Option.map Lcp_engine.Eval_cache.lease_cache lease with
    | Some ec ->
        fun partial centers ->
          List.exists
            (fun u ->
              reject_covered u
              && not (Lcp_engine.Eval_cache.accepts ec partial u))
            centers
    | None ->
        (* the direct oracle path: re-extract every covered view from a
           candidate instance (the view snapshots the labels, so the
           shared partial array needs no copy) *)
        fun partial centers ->
          let candidate = Instance.with_labels inst partial in
          List.exists
            (fun u ->
              reject_covered u
              && not (dec.Decoder.accepts (View.extract candidate ~r u)))
            centers
  in
  let prune i partial =
    (match tally with Some t -> incr t | None -> ());
    (match rank with
    | Some rank -> rk.(i) <- Hashtbl.find rank partial.(order.(i))
    | None -> ());
    if sym_rejects i then begin
      incr sym_cuts;
      true
    end
    else if match filter with Some fails -> fails i | None -> false then begin
      incr filter_cuts;
      true
    end
    else
      match schedule.(i) with
      | [] -> false (* no newly covered ball: no verdict can change *)
      | centers -> branch_rejects partial centers
  in
  let run () =
    Labeling.iter_backtracking_order ~alphabet ~order g ~prune (fun lab ->
        f (Array.copy lab))
  in
  let finish () =
    (* report cut/hit/miss tallies even when the search exits early,
       then hand a pooled cache back *)
    (match cfg with
    | Some c ->
        if !sym_cuts > 0 then
          Run_cfg.count c ~by:!sym_cuts "orbit_pruned_branches";
        if !filter_cuts > 0 then
          Run_cfg.count c ~by:!filter_cuts "filter_pruned_branches"
    | None -> ());
    count_eval_stats cfg lease;
    Option.iter Lcp_engine.Eval_cache.release lease
  in
  match (cfg, lease) with
  | None, None -> run ()
  | _ -> Fun.protect ~finally:finish run

let iter_labelings_pruned ?cfg dec ~alphabet inst ~reject_covered f =
  iter_pruned ?cfg dec ~alphabet inst ~reject_covered f

let iter_accepted ?cfg dec ~alphabet inst f =
  iter_labelings_pruned ?cfg dec ~alphabet inst ~reject_covered:(fun _ -> true) f

(* The search explores labelings in lexicographic order of the
   alphabet ranks along the ball-completion order, so its first
   accepted labeling is the lex-minimum of the (Aut-closed, for
   eligible decoders) accepted set — automatically minimal in its own
   orbit. Orbit constraints only ever cut non-minimal labelings, so
   the pruned and direct paths return bit-identical witnesses (and
   identical [None]s); only the tally shrinks. *)
let search_accepted ?cfg dec ~alphabet inst =
  let tally = ref 0 in
  let sym = orbit_constraints ?cfg dec inst in
  (match cfg with
  | Some c ->
      Run_cfg.count c ~by:0 "orbit_pruned_branches";
      Run_cfg.count c ~by:0 "filter_pruned_branches"
  | None -> ());
  let exception Found of Labeling.t in
  let witness =
    try
      iter_pruned ~tally ?sym ?cfg dec ~alphabet inst
        ~reject_covered:(fun _ -> true)
        (fun lab -> raise (Found lab));
      None
    with Found lab -> Some lab
  in
  (witness, !tally)

let find_accepted ?cfg dec ~alphabet inst =
  fst (search_accepted ?cfg dec ~alphabet inst)

let count_accepted ?cfg dec ~alphabet inst =
  let k = ref 0 in
  iter_accepted ?cfg dec ~alphabet inst (fun _ -> incr k);
  !k
