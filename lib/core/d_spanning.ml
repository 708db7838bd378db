open Lcp_graph
open Lcp_local

type cert = { color : int; root : int; dist : int }

let parse s =
  match Certificate.fields s with
  | [ c; r; d ] -> (
      match
        (Certificate.int_field c, Certificate.int_field r, Certificate.int_field d)
      with
      | Some color, Some root, Some dist when color <= 1 && root >= 1 ->
          Some { color; root; dist }
      | _ -> None)
  | _ -> None

let accepts view =
  match parse (View.center_label view) with
  | None -> false
  | Some mine -> (
      let neighbor_certs =
        List.map
          (fun (w, _, _) -> parse (View.label view w))
          (View.center_neighbors view)
      in
      if List.exists Option.is_none neighbor_certs then false
      else
        let neighbors = List.map Option.get neighbor_certs in
        let proper = List.for_all (fun c -> c.color <> mine.color) neighbors in
        let same_root = List.for_all (fun c -> c.root = mine.root) neighbors in
        (* in a bipartite graph every edge crosses BFS layers, so true
           distances of neighbors differ by exactly one *)
        let layered = List.for_all (fun c -> abs (c.dist - mine.dist) = 1) neighbors in
        let rooted =
          if mine.dist = 0 then View.center_id view = mine.root
          else List.exists (fun c -> c.dist = mine.dist - 1) neighbors
        in
        proper && same_root && layered && rooted)

(* Necessary conditions read off [accepts], for the forward-checked
   search: a parse failure rejects on either side of an edge, a node
   claiming distance 0 carries the root id; across an edge the colours
   differ, the roots agree and the distances differ by exactly one. *)
let conditions =
  let node_ok (inst : Instance.t) u = function
    | None -> false
    | Some c -> c.dist <> 0 || Ident.id inst.Instance.ids u = c.root
  in
  let edge_ok _ _ mine _ theirs =
    match (mine, theirs) with
    | Some mine, Some c ->
        c.color <> mine.color && c.root = mine.root
        && abs (c.dist - mine.dist) = 1
    | _ -> false
  in
  Decoder.Conditions
    { parse; node_ok = Some node_ok; edge_ok = Some edge_ok }

let decoder =
  Decoder.make ~port_invariant:true ~conditions ~name:"spanning-2-col"
    ~radius:1 ~anonymous:false accepts

let prover (inst : Instance.t) =
  let g = inst.Instance.graph in
  match Coloring.two_color g with
  | None -> None
  | Some colors ->
      let n = Graph.order g in
      let lab = Array.make n "" in
      List.iter
        (fun comp ->
          let root = List.hd comp in
          let dist = Metrics.bfs_dist g root in
          let root_id = Ident.id inst.Instance.ids root in
          (* align colors with dist parity per component: the BFS
             2-coloring already alternates, but its phase may differ from
             [colors]; recompute colors from dist parity plus the root's
             color so that distances and colors agree *)
          let base = colors.(root) in
          List.iter
            (fun v ->
              let c = (base + dist.(v)) mod 2 in
              lab.(v) <- Printf.sprintf "%d:%d:%d" c root_id dist.(v))
            comp)
        (Graph.components g);
      Some lab

let adversary_alphabet (inst : Instance.t) =
  let n = Instance.order inst in
  let ids = Array.to_list inst.Instance.ids.Ident.ids in
  let certs = ref [ Decoder.junk ] in
  List.iter
    (fun root ->
      for color = 0 to 1 do
        for dist = 0 to n - 1 do
          certs := Printf.sprintf "%d:%d:%d" color root dist :: !certs
        done
      done)
    ids;
  !certs

let suite =
  {
    Decoder.dec = decoder;
    promise = Coloring.is_bipartite;
    prover;
    adversary_alphabet;
    cert_bits =
      (fun inst ->
        let n = Instance.order inst in
        let bound = inst.Instance.ids.Ident.bound in
        Certificate.bits_of_parts
          [ 1; Certificate.bits_for_id ~bound; Certificate.bits_for_int ~max:(max 1 (n - 1)) ]);
  }
