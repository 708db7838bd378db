open Lcp_graph
open Lcp_local

let closed_neighborhood g v =
  v :: List.rev (Graph.fold_neighbors (fun w acc -> w :: acc) g v [])

let shatter_components g v =
  let removed = closed_neighborhood g v in
  let rest = List.filter (fun w -> not (List.mem w removed)) (Graph.nodes g) in
  let sub, old_of_new = Graph.induced g rest in
  List.map (List.map (fun w -> old_of_new.(w))) (Graph.components sub)

let shatter_point g =
  Graph.fold_nodes
    (fun v acc ->
      if acc = None && List.length (shatter_components g v) >= 2 then Some v
      else acc)
    g None

let is_shatter_graph g = shatter_point g <> None

let encode_type0 ~id = Printf.sprintf "0:%d" id
let encode_type1 ~id ~colors =
  Printf.sprintf "1:%d:%s" id (String.concat "" (List.map string_of_int colors))
let encode_type2 ~id ~comp ~color = Printf.sprintf "2:%d:%d:%d" id comp color

type cert =
  | Shatter of { id : int }
  | Neighbor of { id : int; colors : int array }
  | Component of { id : int; comp : int; color : int }

let parse s =
  match Certificate.fields s with
  | [ "0"; id ] -> (
      match Certificate.int_field id with
      | Some id when id >= 1 -> Some (Shatter { id })
      | _ -> None)
  | [ "1"; id; bits ] -> (
      match Certificate.int_field id with
      | Some id
        when id >= 1 && bits <> ""
             && String.for_all (fun c -> c = '0' || c = '1') bits ->
          let colors =
            Array.init (String.length bits) (fun i -> Char.code bits.[i] - Char.code '0')
          in
          Some (Neighbor { id; colors })
      | _ -> None)
  | [ "2"; id; comp; color ] -> (
      match
        ( Certificate.int_field id,
          Certificate.int_field comp,
          Certificate.int_field color )
      with
      | Some id, Some comp, Some color when id >= 1 && comp >= 1 && color <= 1 ->
          Some (Component { id; comp; color })
      | _ -> None)
  | _ -> None

let cert_id = function
  | Shatter { id } | Neighbor { id; _ } | Component { id; _ } -> id

let accepts view =
  match parse (View.center_label view) with
  | None -> false
  | Some mine -> (
      let raw_neighbors =
        List.map
          (fun (w, _, _) -> (w, parse (View.label view w)))
          (View.center_neighbors view)
      in
      if List.exists (fun (_, c) -> c = None) raw_neighbors then false
      else
        let neighbors = List.map (fun (w, c) -> (w, Option.get c)) raw_neighbors in
        (* condition shared by all types: the whole closed neighborhood
           agrees on the shatter point's identifier *)
        List.for_all (fun (_, c) -> cert_id c = cert_id mine) neighbors
        &&
        match mine with
        | Shatter { id } ->
            (* rule 1: own id correct; all neighbors type 1 with equal
               content *)
            id = View.center_id view
            && List.for_all
                 (fun (_, c) -> match c with Neighbor _ -> true | _ -> false)
                 neighbors
            && begin
                 let contents =
                   List.filter_map
                     (fun (w, c) ->
                       match c with Neighbor _ -> Some (View.label view w) | _ -> None)
                     neighbors
                 in
                 List.sort_uniq Stdlib.compare contents |> List.length <= 1
               end
        | Neighbor { colors; _ } ->
            (* rule 2 *)
            let type0s =
              List.filter (fun (_, c) -> match c with Shatter _ -> true | _ -> false)
                neighbors
            in
            let no_type1 =
              List.for_all
                (fun (_, c) -> match c with Neighbor _ -> false | _ -> true)
                neighbors
            in
            let comp_ok =
              List.for_all
                (fun (_, c) ->
                  match c with
                  | Component { comp; color; _ } ->
                      comp <= Array.length colors && colors.(comp - 1) = color
                  | Shatter _ | Neighbor _ -> true)
                neighbors
            in
            no_type1 && List.length type0s = 1 && comp_ok
        | Component { comp; color; _ } ->
            (* rule 3 *)
            List.for_all
              (fun (_, c) ->
                match c with
                | Shatter _ -> false
                | Neighbor { colors; _ } ->
                    comp <= Array.length colors && colors.(comp - 1) = color
                | Component { comp = comp'; color = color'; _ } ->
                    comp' = comp && color' <> color)
              neighbors)

(* Necessary conditions read off [accepts], for the forward-checked
   search: a parse failure rejects on either side of an edge, a
   shatter point carries its own id (rule 1); across an edge both ends
   name the same shatter point, and the type-adjacency rules hold —
   type 0 sees only type 1 (rule 1), type 1 sees no type 1 and only
   type-2 colours matching its vector (rule 2), type 2 sees no type 0,
   matching vectors and same-component opposite colours (rule 3). *)
let colour_matches colors ~comp ~color =
  comp <= Array.length colors && colors.(comp - 1) = color

let conditions =
  let node_ok (inst : Instance.t) u = function
    | None -> false
    | Some (Shatter { id }) -> id = Ident.id inst.Instance.ids u
    | Some (Neighbor _ | Component _) -> true
  in
  let edge_ok _ _ mine _ theirs =
    match (mine, theirs) with
    | None, _ | _, None -> false
    | Some mine, Some theirs -> (
        cert_id mine = cert_id theirs
        &&
        match (mine, theirs) with
        | Shatter _, Neighbor _ -> true
        | Shatter _, (Shatter _ | Component _) -> false
        | Neighbor _, Neighbor _ -> false
        | Neighbor { colors; _ }, Component { comp; color; _ }
        | Component { comp; color; _ }, Neighbor { colors; _ } ->
            colour_matches colors ~comp ~color
        | Neighbor _, Shatter _ -> true
        | Component _, Shatter _ -> false
        | Component { comp; color; _ }, Component { comp = comp'; color = color'; _ }
          ->
            comp' = comp && color' <> color)
  in
  Decoder.Conditions
    { parse; node_ok = Some node_ok; edge_ok = Some edge_ok }

let decoder =
  Decoder.make ~port_invariant:true ~conditions ~name:"shatter" ~radius:1
    ~anonymous:false accepts

let prover (inst : Instance.t) =
  let g = inst.Instance.graph in
  match (Coloring.two_color g, shatter_point g) with
  | None, _ | _, None -> None
  | Some _, Some v -> (
      let comps = shatter_components g v in
      let n = Graph.order g in
      let vid = Ident.id inst.Instance.ids v in
      (* per-component 2-colorings and the color seen from N(v) *)
      let comp_of = Array.make n (-1) in
      List.iteri (fun i comp -> List.iter (fun w -> comp_of.(w) <- i) comp) comps;
      let colorings =
        List.map
          (fun comp ->
            let sub, old_of_new = Graph.induced g comp in
            match Coloring.two_color sub with
            | None -> None
            | Some cs ->
                let tbl = Hashtbl.create (List.length comp) in
                Array.iteri (fun i c -> Hashtbl.replace tbl old_of_new.(i) c) cs;
                Some tbl)
          comps
      in
      if List.exists Option.is_none colorings then None
      else
        let colorings = Array.of_list (List.map Option.get colorings) in
        (* the partition of component i adjacent to N(v); bipartiteness
           of G guarantees it is unique (Lemma 7.1 condition 3) *)
        let seen_color = Array.make (Array.length colorings) 0 in
        let consistent = ref true in
        Array.iteri
          (fun i tbl ->
            let adjacent_colors =
              Hashtbl.fold
                (fun w c acc ->
                  if Graph.exists_neighbor (fun u -> Graph.mem_edge g u w) g v
                  then c :: acc
                  else acc)
                tbl []
              |> List.sort_uniq Stdlib.compare
            in
            match adjacent_colors with
            | [] -> seen_color.(i) <- 0
            | [ c ] -> seen_color.(i) <- c
            | _ -> consistent := false)
          colorings;
        if not !consistent then None
        else begin
          let vector = Array.to_list seen_color in
          let lab =
            Array.init n (fun w ->
                if w = v then encode_type0 ~id:vid
                else if Graph.mem_edge g v w then
                  encode_type1 ~id:vid ~colors:vector
                else
                  let i = comp_of.(w) in
                  assert (i >= 0);
                  encode_type2 ~id:vid ~comp:(i + 1)
                    ~color:(Hashtbl.find colorings.(i) w))
          in
          Some lab
        end)

let adversary_alphabet (inst : Instance.t) =
  (* exhaustive up to component count 2 and the instance's own ids;
     meant for exhaustive strong-soundness checks on n <= 4 *)
  let ids = Array.to_list inst.Instance.ids.Ident.ids in
  let certs = ref [ Decoder.junk ] in
  List.iter
    (fun id ->
      certs := encode_type0 ~id :: !certs;
      List.iter
        (fun colors -> certs := encode_type1 ~id ~colors :: !certs)
        [ [ 0 ]; [ 1 ]; [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ];
      List.iter
        (fun comp ->
          List.iter
            (fun color -> certs := encode_type2 ~id ~comp ~color :: !certs)
            [ 0; 1 ])
        [ 1; 2 ])
    ids;
  !certs

let suite =
  {
    Decoder.dec = decoder;
    promise = is_shatter_graph;
    prover;
    adversary_alphabet;
    cert_bits =
      (fun inst ->
        let g = inst.Instance.graph in
        match shatter_point g with
        | None -> 0
        | Some v ->
            let k = List.length (shatter_components g v) in
            let bound = inst.Instance.ids.Ident.bound in
            Certificate.bits_of_parts
              [ 2; Certificate.bits_for_id ~bound; k;
                Certificate.bits_for_int ~max:(max 1 k); 1 ]);
  }
