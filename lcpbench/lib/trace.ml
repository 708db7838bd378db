type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int;
  stop_ns : int;
  leaf_ns : int;
}

type leaf = { leaf_name : string; mutable calls : int; mutable ns : int }

type frame = {
  f_id : int;
  f_parent : int option;
  f_name : string;
  f_start : int;
  mutable f_leaf_ns : int;
}

type t = {
  now : unit -> int;
  mutable closed : span list;
  mutable stack : frame list;
  mutable next_id : int;
  mutable leaves : leaf list;
}

let create ~now () = { now; closed = []; stack = []; next_id = 0; leaves = [] }

let span t name f =
  let f_parent = match t.stack with fr :: _ -> Some fr.f_id | [] -> None in
  let fr =
    { f_id = t.next_id; f_parent; f_name = name; f_start = t.now (); f_leaf_ns = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- fr :: t.stack;
  Fun.protect f ~finally:(fun () ->
      let stop_ns = t.now () in
      t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
      t.closed <-
        {
          id = fr.f_id;
          parent = fr.f_parent;
          name;
          start_ns = fr.f_start;
          stop_ns;
          leaf_ns = fr.f_leaf_ns;
        }
        :: t.closed)

let leaf_counter t leaf_name =
  let l = { leaf_name; calls = 0; ns = 0 } in
  t.leaves <- l :: t.leaves;
  l

let account t l t0 =
  let d = t.now () - t0 in
  l.calls <- l.calls + 1;
  l.ns <- l.ns + d;
  match t.stack with fr :: _ -> fr.f_leaf_ns <- fr.f_leaf_ns + d | [] -> ()

let leaf t l f x =
  let t0 = t.now () in
  match f x with
  | r ->
      account t l t0;
      r
  | exception e ->
      account t l t0;
      raise e

let leaves t = List.rev t.leaves
let spans t = List.rev t.closed
let duration s = s.stop_ns - s.start_ns

let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child p
            (duration s + Option.value (Hashtbl.find_opt child p) ~default:0)
      | None -> ())
    spans;
  List.map
    (fun s ->
      ( s,
        duration s - s.leaf_ns
        - Option.value (Hashtbl.find_opt child s.id) ~default:0 ))
    spans

let sum_by f ~name spans =
  List.fold_left (fun a s -> if s.name = name then a + f s else a) 0 spans

let total_ns ~name spans = sum_by duration ~name spans
let count ~name spans = sum_by (fun _ -> 1) ~name spans

let self_ns ~name spans =
  List.fold_left
    (fun a (s, self) -> if s.name = name then a + self else a)
    0 (self_times spans)

let unaccounted_ns ~wall_ns spans =
  wall_ns
  - List.fold_left
      (fun a s -> if s.parent = None then a + duration s else a)
      0 spans
