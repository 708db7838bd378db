type event =
  | Span_start of string
  | Span_end of string * int
  | Progress of string

type t = {
  name : string;
  emit : Metrics.t -> event -> unit;
  flush : Metrics.t -> unit;
}

let null = { name = "null"; emit = (fun _ _ -> ()); flush = ignore }

let stderr_progress =
  {
    name = "stderr";
    emit =
      (fun _ -> function
        | Span_start _ -> ()
        | Span_end (path, ns) ->
            Printf.eprintf "[lcp] %-40s %8.3fs\n%!" path (float_of_int ns /. 1e9)
        | Progress line -> Printf.eprintf "[lcp] %s\n%!" line);
    flush = (fun m -> Format.eprintf "[lcp] metrics@.%a@." Metrics.pp m);
  }

(* Write the full document to a sibling temp file, flush it, then
   rename over [path]: rename is atomic on POSIX, so a tailer (or a
   reader racing a crash) always sees either the previous complete
   document or the new complete document — never a torn or
   half-buffered final line. A failed write (short write, ENOSPC on
   the final flush) raises the write's own [Sys_error] — closing in
   the body, not in a [Fun.protect] finaliser that would re-flush and
   wrap it in [Finally_raised] — and never reaches the rename, so
   [path] keeps its last complete document. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc content;
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path

let write_metrics path m =
  write_atomic path (Json.to_string_pretty (Metrics.to_json m))

let json_file path =
  {
    name = Printf.sprintf "json:%s" path;
    (* live: every event — span closes included — rewrites the file
       with the current snapshot, so tailing it during a long run
       shows progress without waiting for the final flush *)
    emit = (fun m _event -> write_metrics path m);
    flush = (fun m -> write_metrics path m);
  }

let tee a b =
  {
    name = Printf.sprintf "tee(%s,%s)" a.name b.name;
    emit =
      (fun m e ->
        a.emit m e;
        b.emit m e);
    flush =
      (fun m ->
        a.flush m;
        b.flush m);
  }

let of_outputs ?(progress = false) ?metrics_out () =
  let s = if progress then stderr_progress else null in
  match metrics_out with
  | None -> s
  | Some path -> if progress then tee s (json_file path) else json_file path
