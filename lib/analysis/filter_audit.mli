(** The soundness pass for declared necessary conditions
    ({!Lcp.Decoder.checks}): a condition may cut a search branch only
    if no accepting node ever violates it. A node that accepts while
    failing its own [node_ok], or [edge_ok] towards some neighbor, is a
    {!Finding.Filter_unsound} breach — the forward-checked search would
    lose accepted labelings.

    Two sources of accepting nodes are audited:
    - the lint corpus (honest and sampled labelings up to [max_n]),
      with the verdicts the trace pass already computed;
    - an exhaustive closed-ball enumeration: for every connected class
      of order at most 3 (capped by [max_n]), on the
      canonical configuration and one re-drawn port/id configuration,
      every labeling of every node's radius-[r] ball over the suite's
      adversary alphabet.

    Decoders that declare no conditions are skipped at no cost. At most
    one finding is reported per source. *)

val check :
  jobs:int ->
  max_n:int ->
  rng:Random.State.t ->
  decoder:string ->
  Lcp.Decoder.suite ->
  (Corpus.item * bool array) list ->
  Finding.t list
(** [check ~jobs ~max_n ~rng ~decoder suite corpus]: [corpus] pairs
    each item with its node-wise verdicts. [rng] draws the re-configured
    instances, consumed identically on every run; the enumeration runs
    on up to [jobs] domains and its finding does not depend on
    [jobs]. *)
