(** r-round binary decoders and the LCP bundle (paper Sec. 2.2–2.5).

    A decoder is the distributed verifier: a computable map from
    radius-r views to accept/reject. A {!suite} bundles a decoder with
    everything needed to exercise it as a full LCP: the promise class,
    an honest prover, an adversary alphabet for exhaustive soundness
    checking, and the certificate-size accounting. *)

open Lcp_graph
open Lcp_local

(** {1 Necessary conditions}

    A decoder may declare cheap {e necessary} conditions for its own
    acceptance, read straight off its [accepts]: a unary check on a
    node's own certificate (given the node's id and degree), and a
    pairwise check across each incident edge (given both certificates,
    both ids and the edge's two ports). They are never sufficient —
    [accepts] stays the only verdict — but they let the certificate
    search ({!Prover}) cut a branch the moment a node is assigned,
    instead of waiting for its ball to be fully labeled.

    Soundness of the cut rests on one contract: whenever node [u]
    accepts, [node_ok inst u (parse l_u)] holds and [edge_ok inst u
    (parse l_u) w (parse l_w)] holds for every neighbor [w]. [lcp lint]
    verifies it (the [filter-unsound] finding), and clearing the
    conditions ([{ dec with conditions = None }]) gives the unfiltered
    search, the oracle the filtered one is differentially tested
    against. *)

type 'c checks = {
  parse : string -> 'c;
      (** interns a certificate once per search; the checks below only
          ever see parsed values *)
  node_ok : (Instance.t -> int -> 'c -> bool) option;
      (** [node_ok inst u c]: [u] can accept only if its own
          certificate [c] passes *)
  edge_ok : (Instance.t -> int -> 'c -> int -> 'c -> bool) option;
      (** [edge_ok inst u c w d]: [u] labeled [c] can accept only if
          this holds for its neighbor [w] labeled [d] *)
}

type conditions = Conditions : 'c checks -> conditions

type t = {
  name : string;
  radius : int;
  anonymous : bool;  (** claimed; tests verify it empirically *)
  port_invariant : bool;
      (** claimed: verdicts never depend on port numbers. Verified
          empirically by the sanitizer like [anonymous]. A decoder that
          is both anonymous and port-invariant has Aut-invariant
          verdicts, which licenses the automorphism-orbit search
          pruning ({!Lcp_engine.Auto}); defaults to [false] — reading
          ports is the norm in this library. *)
  accepts : View.t -> bool;
  conditions : conditions option;
      (** declared necessary conditions; [None] (the default) means
          the search prunes on completed balls only *)
}

val make :
  ?port_invariant:bool ->
  ?conditions:conditions ->
  name:string ->
  radius:int ->
  anonymous:bool ->
  (View.t -> bool) ->
  t

val violated_condition : t -> Instance.t -> int -> string option
(** On the instance's own labels: [Some what] when node [u] fails its
    declared unary condition or the pairwise condition towards some
    neighbor ([what] names which), [None] when every declared
    condition at [u] holds (always, when none is declared). If [u]
    accepts the instance, [Some _] is a breach of the contract above.
    Parses on every call: for audits and tests, not for the search's
    inner loop. *)

val run : t -> Instance.t -> bool array
(** Per-node verdicts. *)

val accepts_all : t -> Instance.t -> bool

val accepting_nodes : t -> Instance.t -> int list

val accepted_subgraph : t -> Instance.t -> Graph.t * int array
(** Subgraph induced by the accepting nodes (plus the map back to
    original node ids) — the object of strong soundness. *)

val as_local_algo : t -> bool Local_algo.t

(** {1 Contracts}

    The machine-checkable claims a decoder makes about itself, verified
    empirically by the [Lcp_analysis] sanitizer. Every theorem about a
    decoder is conditional on these: the order-invariance reduction
    (Lemma 6.2) needs verdicts independent of concrete identifiers, and
    r-round locality bounds are vacuous if the implementation keys on
    data deeper than its declared radius. *)

type contract = {
  declared_radius : int;
      (** the locality claim: evaluations must never read data at
          distance greater than this from the center. Usually equal to
          {!field-radius} (the extraction radius); a decoder may request
          a generous view yet claim — and be held to — a tighter
          effective radius. *)
  declared_anonymous : bool;
      (** verdicts must not depend on identifiers: no id reads, and
          node-wise verdicts invariant under injective re-identification
          (with certificates held fixed) *)
  declared_port_invariant : bool;
      (** node-wise verdicts invariant under re-drawing the port
          assignment (with certificates held fixed) *)
}

val contract : ?radius:int -> ?port_invariant:bool -> t -> contract
(** The decoder's declared contract: radius defaults to the extraction
    radius, anonymity to the decoder's [anonymous] flag, port
    invariance to the decoder's [port_invariant] flag.
    @raise Invalid_argument if [radius] is not in [1 .. t.radius]. *)

(** {1 LCP bundles} *)

type suite = {
  dec : t;
  promise : Graph.t -> bool;
      (** the class H of the promise problem (yes-instances) *)
  prover : Instance.t -> Labeling.t option;
      (** honest prover: certificates for a yes-instance (the instance's
          own labels are ignored); [None] if the graph is outside the
          promise class or not 2-colorable *)
  adversary_alphabet : Instance.t -> string list;
      (** finite certificate alphabet that is exhaustive up to
          node-level equivalence for this decoder on this instance
          (malformed certificates are represented by one junk symbol) *)
  cert_bits : Instance.t -> int;
      (** information-theoretic size (bits) of the largest honest
          certificate on this instance *)
}

val certify : suite -> Instance.t -> Instance.t option
(** Instance re-labeled by the honest prover. *)

val junk : string
(** The representative malformed certificate, rejected by every decoder
    in this library. *)
