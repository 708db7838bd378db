(* One workload, one fresh process: lcpbench/run.py starts this
   executable once per run, so peak RSS is per workload and the
   process-wide caches (the iso-class cache, the acceptance-table
   lease pool) start cold. Prints one JSON object as its last line. *)

open Common

let workloads =
  [
    ("sweep-anon", fun ctx -> Sweeps.run ctx Sweeps.anon);
    ("sweep-ids", fun ctx -> Sweeps.run ctx Sweeps.ids);
    ("sample-100k", Sample.run);
    ("serve-mix", Serve_mix.run);
  ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let metrics ms =
  obj
    (List.map
       (fun x -> (x.name, obj [ ("value", number x.value); ("unit", Printf.sprintf "%S" x.unit_) ]))
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tmp = ref ".lcpbench_tmp" and lcp_bin = ref "_build/default/bin/main.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed (sample-100k graph, serve-mix sequence)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or the traced per-layer run");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory (default .lcpbench_tmp)");
      ("--lcp", Arg.Set_string lcp_bin, "EXE the lcp binary serve-mix starts as its daemon");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let gate = Lcpbench.Gate.create () in
  let ctx =
    { seed = !seed; seconds = !seconds; traced = !trace = 1; tmp = !tmp; lcp_bin = !lcp_bin; gate }
  in
  let o = run ctx in
  let failed = Lcpbench.Gate.failed gate in
  List.iter (fun p -> prerr_endline ("FAILED " ^ p)) (Lcpbench.Gate.problems gate);
  print_endline
    (obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int (Lcpbench.Gate.attempted gate));
         ("failed", string_of_int failed);
         ("metrics", metrics (if ctx.traced then o.layers else o.e2e));
         ("info", obj (List.map (fun (k, v) -> (k, number v)) o.info));
         ( "provenance",
           obj
             [
               ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("jobs", "1");
               ("seed", string_of_int !seed);
               ("seconds", number !seconds);
             ] );
       ]);
  exit (if failed = 0 then 0 else 1)
