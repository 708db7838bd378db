open Lcp_graph
open Lcp_local

type decomposition = { v1 : int; v2 : int; paths : int list list }

let trace_path g ~src ~dst first =
  (* follow degree-2 nodes from [src] through [first] until [dst];
     returns None when the walk leaves the path discipline *)
  let rec go prev cur acc steps =
    if steps > Graph.order g then None
    else if cur = dst then Some (List.rev (cur :: acc))
    else if cur = src || Graph.degree g cur <> 2 then None
    else begin
      (* cur has degree 2 (checked above): continue through the
         neighbor we did not come from; if prev is not a neighbor the
         walk has left the path discipline *)
      let a = Graph.nth_neighbor g cur 0 and b = Graph.nth_neighbor g cur 1 in
      if a = prev then go cur b (cur :: acc) (steps + 1)
      else if b = prev then go cur a (cur :: acc) (steps + 1)
      else None
    end
  in
  go src first [ src ] 0

let decompose_from g v1 v2 =
  if v1 = v2 then None
  else
    let paths =
      List.rev
        (Graph.fold_neighbors
           (fun first acc -> trace_path g ~src:v1 ~dst:v2 first :: acc)
           g v1 [])
    in
    if List.exists Option.is_none paths then None
    else
      let paths = List.map Option.get paths in
      (* paths must have length >= 2 (no v1-v2 edge), be internally
         disjoint, and cover the whole graph *)
      let internal = List.concat_map (fun p -> List.filter (fun w -> w <> v1 && w <> v2) p) paths in
      let covered = List.sort Stdlib.compare (v1 :: v2 :: internal) in
      let all_distinct =
        List.length (List.sort_uniq Stdlib.compare internal) = List.length internal
      in
      if
        all_distinct
        && List.for_all (fun p -> List.length p >= 3) paths
        && covered = Graph.nodes g
        && Graph.degree g v2 = List.length paths
      then Some { v1; v2; paths }
      else None

let decompose g =
  if Graph.order g < 4 || not (Graph.is_connected g) then None
  else
    let high = List.filter (fun v -> Graph.degree g v >= 3) (Graph.nodes g) in
    match high with
    | [ a; b ] -> decompose_from g a b
    | [] ->
        (* a cycle: endpoints are 0 and a farthest node *)
        if not (Graph.is_cycle g) then None
        else begin
          let dist = Metrics.bfs_dist g 0 in
          let far =
            Graph.fold_nodes
              (fun v best -> if dist.(v) > dist.(best) then v else best)
              g 0
          in
          decompose_from g 0 far
        end
    | _ -> None

let encode_endpoint ~id1 ~id2 = Printf.sprintf "1:%d:%d" id1 id2

let encode_path_node ~id1 ~id2 ~num ~p1 ~c1 ~p2 ~c2 =
  Printf.sprintf "2:%d:%d:%d:%d:%d:%d:%d" id1 id2 num p1 c1 p2 c2

type cert =
  | Endpoint of { id1 : int; id2 : int }
  | Path_node of {
      id1 : int;
      id2 : int;
      num : int;
      far : int array;  (** claimed far-end ports of my port-1/2 edges *)
      col : int array;  (** claimed colors of my port-1/2 edges *)
    }

let parse s =
  let int = Certificate.int_field in
  match Certificate.fields s with
  | [ "1"; id1; id2 ] -> (
      match (int id1, int id2) with
      | Some id1, Some id2 when 1 <= id1 && id1 < id2 -> Some (Endpoint { id1; id2 })
      | _ -> None)
  | [ "2"; id1; id2; num; p1; c1; p2; c2 ] -> (
      match (int id1, int id2, int num, int p1, int c1, int p2, int c2) with
      | Some id1, Some id2, Some num, Some p1, Some c1, Some p2, Some c2
        when 1 <= id1 && id1 < id2 && num >= 1 && p1 >= 1 && p2 >= 1 && c1 <= 1
             && c2 <= 1 && c1 <> c2 ->
          Some (Path_node { id1; id2; num; far = [| p1; p2 |]; col = [| c1; c2 |] })
      | _ -> None)
  | _ -> None

let ids_of = function
  | Endpoint { id1; id2 } | Path_node { id1; id2; _ } -> (id1, id2)

let accepts view =
  match parse (View.center_label view) with
  | None -> false
  | Some mine -> (
      let raw =
        List.map
          (fun (w, p, fp) -> (w, p, fp, parse (View.label view w)))
          (View.center_neighbors view)
      in
      if List.exists (fun (_, _, _, c) -> c = None) raw then false
      else
        let neighbors = List.map (fun (w, p, fp, c) -> (w, p, fp, Option.get c)) raw in
        (* condition 1: the whole closed neighborhood agrees on the
           endpoint identifiers *)
        List.for_all (fun (_, _, _, c) -> ids_of c = ids_of mine) neighbors
        &&
        match mine with
        | Endpoint { id1; id2 } ->
            let my_id = View.center_id view in
            (* 2(a) *)
            (my_id = id1 || my_id = id2)
            (* 2(b): every neighbor is a path node whose entry for the
               shared edge points back at my port *)
            && List.for_all
                 (fun (_, my_port, far_port, c) ->
                   match c with
                   | Endpoint _ -> false
                   | Path_node { far; _ } ->
                       far_port <= 2 && far.(far_port - 1) = my_port)
                 neighbors
            (* 2(c): pairwise distinct path numbers *)
            && begin
                 let nums =
                   List.filter_map
                     (fun (_, _, _, c) ->
                       match c with Path_node { num; _ } -> Some num | _ -> None)
                     neighbors
                 in
                 List.length (List.sort_uniq Stdlib.compare nums) = List.length nums
               end
            (* 2(d): my incident edges are monochromatic *)
            && begin
                 let colors =
                   List.filter_map
                     (fun (_, _, far_port, c) ->
                       match c with
                       | Path_node { col; _ } when far_port <= 2 ->
                           Some col.(far_port - 1)
                       | _ -> None)
                     neighbors
                 in
                 List.length (List.sort_uniq Stdlib.compare colors) <= 1
               end
        | Path_node { id1; id2; num; far; col } -> (
            (* 3(a): exactly two neighbors, on ports 1 and 2 *)
            match List.sort (fun (_, p, _, _) (_, q, _, _) -> Stdlib.compare p q) neighbors with
            | [ (w1, 1, fp1, c1); (w2, 2, fp2, c2) ] ->
                let check i w observed_far c =
                  (* my claimed far port matches the observed one *)
                  far.(i - 1) = observed_far
                  &&
                  match c with
                  | Endpoint _ ->
                      (* 3(b): the endpoint really carries one of the
                         claimed identifiers *)
                      let wid = View.id view w in
                      wid = id1 || wid = id2
                  | Path_node { num = num'; far = far'; col = col'; _ } ->
                      (* 3(c) *)
                      num' = num && observed_far <= 2
                      && far'.(observed_far - 1) = i
                      && col'.(observed_far - 1) = col.(i - 1)
                in
                check 1 w1 fp1 c1 && check 2 w2 fp2 c2
            | _ -> false))

(* Necessary conditions read off [accepts], for the forward-checked
   search: a parse failure rejects on either side of an edge, an
   endpoint carries its own id (2(a)), a path node has degree 2
   (3(a)); across an edge both ends claim the same id pair
   (condition 1), an endpoint's neighbor is a path node pointing back
   at the endpoint's port (2(b)), and a path node's neighbor agrees on
   the far port and — endpoint or path node — on identity, path
   number, back pointer and edge colour (3(b), 3(c)). *)
let conditions =
  let node_ok (inst : Instance.t) u = function
    | None -> false
    | Some (Endpoint { id1; id2 }) ->
        let id = Ident.id inst.Instance.ids u in
        id = id1 || id = id2
    | Some (Path_node _) -> Graph.degree inst.Instance.graph u = 2
  in
  let edge_ok (inst : Instance.t) u mine w theirs =
    match (mine, theirs) with
    | None, _ | _, None -> false
    | Some mine, Some theirs -> (
        ids_of mine = ids_of theirs
        &&
        let ports = inst.Instance.ports in
        let my_port = Port.port_of ports u w and far_port = Port.port_of ports w u in
        match (mine, theirs) with
        | Endpoint _, Endpoint _ -> false
        | Endpoint _, Path_node { far; _ } ->
            far_port <= 2 && far.(far_port - 1) = my_port
        | Path_node { far; _ }, _ when my_port > 2 || far.(my_port - 1) <> far_port
          ->
            false
        | Path_node { id1; id2; _ }, Endpoint _ ->
            let wid = Ident.id inst.Instance.ids w in
            wid = id1 || wid = id2
        | Path_node { num; col; _ }, Path_node { num = num'; far = far'; col = col'; _ }
          ->
            num' = num && far_port <= 2
            && far'.(far_port - 1) = my_port
            && col'.(far_port - 1) = col.(my_port - 1))
  in
  Decoder.Conditions
    { parse; node_ok = Some node_ok; edge_ok = Some edge_ok }

let decoder =
  Decoder.make ~conditions ~name:"watermelon" ~radius:1 ~anonymous:false accepts

let prover (inst : Instance.t) =
  let g = inst.Instance.graph in
  match decompose g with
  | None -> None
  | Some { v1; v2; paths } ->
      if not (Coloring.is_bipartite g) then None
      else begin
        let n = Graph.order g in
        let idf v = Ident.id inst.Instance.ids v in
        let id1 = min (idf v1) (idf v2) and id2 = max (idf v1) (idf v2) in
        (* 2-edge-color each path: 0 on the edge at v1, alternating *)
        let edge_color = Hashtbl.create n in
        let key a b = (min a b, max a b) in
        List.iter
          (fun path ->
            let rec walk idx = function
              | a :: (b :: _ as rest) ->
                  Hashtbl.replace edge_color (key a b) (idx mod 2);
                  walk (idx + 1) rest
              | _ -> ()
            in
            walk 0 path)
          paths;
        let path_num = Hashtbl.create n in
        List.iteri
          (fun i path ->
            List.iter
              (fun w -> if w <> v1 && w <> v2 then Hashtbl.replace path_num w (i + 1))
              path)
          paths;
        let lab =
          Array.init n (fun u ->
              if u = v1 || u = v2 then encode_endpoint ~id1 ~id2
              else begin
                let w1 = Port.neighbor_at inst.Instance.ports u 1 in
                let w2 = Port.neighbor_at inst.Instance.ports u 2 in
                encode_path_node ~id1 ~id2
                  ~num:(Hashtbl.find path_num u)
                  ~p1:(Port.port_of inst.Instance.ports w1 u)
                  ~c1:(Hashtbl.find edge_color (key u w1))
                  ~p2:(Port.port_of inst.Instance.ports w2 u)
                  ~c2:(Hashtbl.find edge_color (key u w2))
              end)
        in
        Some lab
      end

let adversary_alphabet (inst : Instance.t) =
  (* the honest endpoint pair plus one decoy pair; path numbers up to 2;
     exhaustive-check-sized (use the randomized checker beyond n = 4) *)
  let ids = List.sort Stdlib.compare (Array.to_list inst.Instance.ids.Ident.ids) in
  let delta = Graph.max_degree inst.Instance.graph in
  let pairs =
    let honest =
      match decompose inst.Instance.graph with
      | Some { v1; v2; _ } ->
          let a = Ident.id inst.Instance.ids v1 and b = Ident.id inst.Instance.ids v2 in
          [ (min a b, max a b) ]
      | None -> []
    in
    let extremes =
      match (ids, List.rev ids) with
      | a :: _, z :: _ when a < z -> [ (a, z) ]
      | _ -> []
    in
    let decoy = match ids with a :: b :: _ -> [ (a, b) ] | _ -> [] in
    List.sort_uniq Stdlib.compare (honest @ extremes @ decoy)
  in
  let certs = ref [ Decoder.junk ] in
  List.iter
    (fun (id1, id2) ->
      certs := encode_endpoint ~id1 ~id2 :: !certs;
      for num = 1 to 2 do
        for p1 = 1 to delta do
          for p2 = 1 to delta do
            List.iter
              (fun c1 ->
                certs :=
                  encode_path_node ~id1 ~id2 ~num ~p1 ~c1 ~p2 ~c2:(1 - c1) :: !certs)
              [ 0; 1 ]
          done
        done
      done)
    pairs;
  !certs

let suite =
  {
    Decoder.dec = decoder;
    promise = (fun g -> decompose g <> None);
    prover;
    adversary_alphabet;
    cert_bits =
      (fun inst ->
        let g = inst.Instance.graph in
        let bound = inst.Instance.ids.Ident.bound in
        let k = Graph.max_degree g in
        Certificate.bits_of_parts
          [ 1;
            Certificate.bits_for_id ~bound;
            Certificate.bits_for_id ~bound;
            Certificate.bits_for_int ~max:(max 1 k);
            Certificate.bits_for_int ~max:(max 1 k);
            1;
            Certificate.bits_for_int ~max:(max 1 k);
            1 ]);
  }
