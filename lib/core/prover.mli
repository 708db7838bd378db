(** Generic certificate search: the computational stand-in for the
    paper's all-powerful prover.

    The honest provers of the individual decoders construct certificates
    exactly as the completeness proofs do; this module instead {e
    searches} the certificate space, which is what we need to check
    statements of the form "no certificate assignment is accepted"
    (soundness) or "every accepted assignment has property P" (strong
    soundness).

    The search backtracks over the alphabet in {e ball-completion
    order}: nodes are assigned so that some node's radius-r ball is
    fully labeled as early as possible, and a branch is cut as soon as
    a covered node rejects. Covered verdicts come from per-node
    acceptance tables ({!Lcp_engine.Eval_cache}) — each (node,
    ball-labeling) pair is decoded once and looked up thereafter. Every
    entry point takes an optional {!Run_cfg.t}: [cfg.eval_cache =
    false] forces the direct re-extraction path (the oracle the tables
    are validated against — verdicts, witnesses and tallies are
    identical), and when a cfg is present the search reports
    [eval_cache_hits] / [eval_cache_misses] into its metrics. Searches
    are sequential per instance, so both counters and tallies are
    deterministic and independent of [cfg.jobs].

    {!search_accepted} / {!find_accepted} additionally quotient the
    space by the graph's automorphism group when [cfg.orbit_prune]
    holds (the default) and the decoder's verdicts are Aut-invariant
    (anonymous and port-invariant, order <= {!Lcp_engine.Canon.max_order}):
    per-automorphism prefix-minimality programs from
    {!Lcp_engine.Auto.prefix_programs} cut a branch as soon as some
    automorphism provably sends every completion of the current
    partial labeling to a lexicographically smaller one.
    The search visits labelings in lex order, so its first accepted
    labeling is automatically the minimum of its (Aut-closed) accepted
    set — witnesses and verdicts are bit-identical to the direct path
    ([cfg.orbit_prune = false], the oracle); only the work tally
    shrinks, deterministically per setting, with the cut branches
    reported as [orbit_pruned_branches]. {!iter_accepted} /
    {!count_accepted} enumerate {e all} accepted labelings and are
    never orbit-pruned.

    Every entry point also forward-checks the decoder's declared
    necessary conditions ({!Decoder.checks}), when it declares any: the
    moment a node is assigned, the branch is cut if that node fails its
    unary condition, or if the pairwise condition fails in either
    direction against an already-assigned neighbor (each direction only
    for nodes whose rejection cuts). A cut node rejects in every
    completion, so accepted labelings, witnesses and verdicts are those
    of the same decoder with [conditions = None] — the oracle; only the
    tally shrinks, and the cuts are reported as
    [filter_pruned_branches]. *)

open Lcp_local

val find_accepted :
  ?cfg:Run_cfg.t ->
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  Labeling.t option
(** Some labeling over the alphabet that every node accepts, if one
    exists. Backtracking with ball-coverage pruning: a partial labeling
    is cut as soon as some node whose entire radius-r ball is already
    labeled rejects. *)

val search_accepted :
  ?cfg:Run_cfg.t ->
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  Labeling.t option * int
(** {!find_accepted} plus a work tally: the number of partial labelings
    the backtracking search examined (prune invocations) before
    accepting or exhausting the space. The search is sequential per
    instance, so the tally is deterministic — it feeds the engine's
    [labelings_checked] counter — and identical with the acceptance
    tables on or off. Orbit pruning (see the module doc) shrinks the
    tally on symmetric graphs: it is deterministic {e per
    orbit-prune setting}, equal whenever the graph is rigid or the
    decoder ineligible, and never changes the witness. *)

val iter_accepted :
  ?cfg:Run_cfg.t ->
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  (Labeling.t -> unit) ->
  unit
(** All unanimously accepted labelings (the callback receives a fresh
    copy each time), in ball-completion search order. *)

val count_accepted :
  ?cfg:Run_cfg.t -> Decoder.t -> alphabet:string list -> Instance.t -> int

val orbit_eligible : Decoder.t -> Instance.t -> bool
(** Whether the automorphism-orbit quotient is sound for this decoder
    on this instance: verdicts must be Aut-invariant (the decoder is
    anonymous {e and} port-invariant — then a verdict depends only on
    the labeled isomorphism type of the view) and the order must not
    exceed {!Lcp_engine.Canon.max_order}. Shared with {!Checker}'s
    exhaustive strong-soundness quotient. *)

val acquire_cache :
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  Lcp_engine.Eval_cache.lease
(** Lease an acceptance-table cache for this (decoder, alphabet,
    instance) triple through {!Lcp_engine.Eval_cache.acquire}, keyed
    by everything a verdict depends on besides the labels (decoder
    name and radius, alphabet, graph, identifiers, ports). When the
    process has enabled cache sharing (the serve daemon does), a
    repeated search over the same triple reuses the already-populated
    tables. Callers must {!Lcp_engine.Eval_cache.release} the lease. *)

val count_eval_stats :
  Run_cfg.t option -> Lcp_engine.Eval_cache.lease option -> unit
(** Report a lease's [(hits, misses)] delta into the cfg's metrics as
    [eval_cache_hits] / [eval_cache_misses] (plus
    [eval_cache_shared_hits] when the lease was warm), materializing
    all three counters (at 0) whenever a cfg is present so memoized,
    direct and warm runs serialize the same key set. Shared with
    {!Checker}'s exhaustive paths; no-op without a cfg. *)

val iter_labelings_pruned :
  ?cfg:Run_cfg.t ->
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  reject_covered:(int -> bool) ->
  (Labeling.t -> unit) ->
  unit
(** Lower-level driver: iterate complete labelings, cutting branches
    according to covered-node verdicts. [reject_covered v] decides
    whether a covered node [v] rejecting should cut the branch (pass
    [fun _ -> true] for unanimous acceptance search, [fun _ -> false]
    for full enumeration). *)
