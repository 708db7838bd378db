open Lcp_graph
open Lcp_local

type 'c checks = {
  parse : string -> 'c;
  node_ok : (Instance.t -> int -> 'c -> bool) option;
  edge_ok : (Instance.t -> int -> 'c -> int -> 'c -> bool) option;
}

type conditions = Conditions : 'c checks -> conditions

type t = {
  name : string;
  radius : int;
  anonymous : bool;
  port_invariant : bool;
  accepts : View.t -> bool;
  conditions : conditions option;
}

let make ?(port_invariant = false) ?conditions ~name ~radius ~anonymous
    accepts =
  { name; radius; anonymous; port_invariant; accepts; conditions }

let node_ok t inst u s =
  match t.conditions with
  | Some (Conditions { parse; node_ok = Some ok; _ }) -> ok inst u (parse s)
  | _ -> true

let edge_ok t inst u s w s' =
  match t.conditions with
  | Some (Conditions { parse; edge_ok = Some ok; _ }) ->
      ok inst u (parse s) w (parse s')
  | _ -> true

let violated_condition t (inst : Instance.t) u =
  let l = inst.Instance.labels in
  if not (node_ok t inst u l.(u)) then Some "node_ok"
  else
    Graph.find_neighbor
      (fun w -> not (edge_ok t inst u l.(u) w l.(w)))
      inst.Instance.graph u
    |> Option.map (fun w -> Printf.sprintf "edge_ok towards node %d" w)

let run t inst = Array.map t.accepts (View.extract_all inst ~r:t.radius)

let accepts_all t inst = Array.for_all (fun b -> b) (run t inst)

let accepting_nodes t inst =
  let verdicts = run t inst in
  Array.to_list (Array.mapi (fun v ok -> (v, ok)) verdicts)
  |> List.filter_map (fun (v, ok) -> if ok then Some v else None)

let accepted_subgraph t inst =
  Graph.induced inst.Instance.graph (accepting_nodes t inst)

let as_local_algo t =
  Local_algo.make ~name:t.name ~radius:t.radius t.accepts

type contract = {
  declared_radius : int;
  declared_anonymous : bool;
  declared_port_invariant : bool;
}

let contract ?radius ?port_invariant t =
  let declared_radius = Option.value radius ~default:t.radius in
  if declared_radius < 1 || declared_radius > t.radius then
    invalid_arg "Decoder.contract: declared radius outside [1; view radius]";
  {
    declared_radius;
    declared_anonymous = t.anonymous;
    declared_port_invariant =
      Option.value port_invariant ~default:t.port_invariant;
  }

type suite = {
  dec : t;
  promise : Graph.t -> bool;
  prover : Instance.t -> Labeling.t option;
  adversary_alphabet : Instance.t -> string list;
  cert_bits : Instance.t -> int;
}

let certify suite inst =
  Option.map (Instance.with_labels inst) (suite.prover inst)

let junk = "junk"
