type check = string option
type t = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let create () = { attempted = 0; failed = 0; problems = [] }
let holds what cond = if cond then None else Some what

let eq what ~expected actual =
  if expected = actual then None
  else Some (Printf.sprintf "%s: expected %d, got %d" what expected actual)

let op t what checks =
  t.attempted <- t.attempted + 1;
  match List.filter_map Fun.id checks with
  | [] -> ()
  | reasons ->
      t.failed <- t.failed + 1;
      t.problems <-
        t.problems @ List.map (fun r -> Printf.sprintf "%s: %s" what r) reasons

let attempted t = t.attempted
let failed t = t.failed
let problems t = t.problems
