(* serve-mix: an `lcp serve` daemon (default workers, jobs=1 requests)
   driven closed-loop by two client connections, each sending its own
   seeded sequence of requests and waiting for every reply.

   Most requests are sub-millisecond check/prove/ping requests, where
   transport, the protocol codec and the job queue dominate the median;
   one in ten is a sweep (n=5 or 6), which dominates busy time and the
   tail. It is the only workload that loads lib/serve, and the only one
   that reads acceptance tables warm where the sweeps write them cold.

   Each connection uses one decoder of its own, so no request of one
   connection shares an acceptance table, a lease or a coalesce key
   with the other's: what a request computes and counts does not
   depend on how the two connections interleave. *)

open Common
module P = Lcp_serve.Protocol
module Client = Lcp_serve.Client
module Session = Lcp_serve.Session
module Json = Lcp_obs.Json
module Trace = Lcpbench.Trace
module Gate = Lcpbench.Gate
module Stats = Lcpbench.Stats

type pool = { decoder : string; checks : string list; proves : string list }

let pools =
  [|
    {
      decoder = "degree-one";
      checks = [ "cycle:5"; "cycle:7"; "complete:4"; "path:6" ];
      proves = [ "path:8"; "star:7"; "tree:3" ];
    };
    {
      decoder = "trivial2";
      checks = [ "cycle:5"; "cycle:7"; "complete:4"; "grid:2x3" ];
      proves = [ "cycle:8"; "grid:3x3"; "hypercube:3" ];
    };
  |]

let sweep_orders = [ 5; 6 ]

(* Blocks of 20 requests per connection in one round: a round takes
   about a quarter of a second on a 2-vCPU x86-64 VM, and a run repeats
   rounds for --seconds. *)
let blocks = 10

let request kind = { P.kind; opts = { P.default_opts with P.jobs = Some 1 } }

let sweep decoder n =
  request (P.Sweep { decoder; n; strategy = "orderly"; early_exit = false; shards = 1 })

(* One block of 20: two sweeps, eight checks, six proves and four
   pings, shuffled; graphs drawn from the connection's pool. The mix
   is the same for every seed, only the order and the graphs vary. *)
let block rng p =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let reqs =
    Array.of_list
      (List.map (sweep p.decoder) sweep_orders
      @ List.init 8 (fun _ -> request (P.Check { decoder = p.decoder; graph = pick p.checks }))
      @ List.init 6 (fun _ -> request (P.Prove { decoder = p.decoder; graph = pick p.proves }))
      @ List.init 4 (fun _ -> request P.Ping))
  in
  for i = Array.length reqs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = reqs.(i) in
    reqs.(i) <- reqs.(j);
    reqs.(j) <- x
  done;
  reqs

let sequences ctx =
  Array.mapi
    (fun c p ->
      let rng = Random.State.make [| ctx.seed; c |] in
      Array.concat (List.init blocks (fun _ -> block rng p)))
    pools

(* Every distinct request once: what a warm daemon has already paid. *)
let warmup =
  Array.to_list pools
  |> List.concat_map (fun p ->
         List.map (sweep p.decoder) sweep_orders
         @ List.map (fun graph -> request (P.Check { decoder = p.decoder; graph })) p.checks
         @ List.map (fun graph -> request (P.Prove { decoder = p.decoder; graph })) p.proves)

let kind_name (r : P.request) = P.kind_name r.P.kind

(* ---- the daemon ------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let call socket r = Client.with_connection socket (fun c -> Client.request c r)

let spawn ctx ~socket =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process ctx.lcp_bin
          [| ctx.lcp_bin; "serve"; "--socket"; socket |]
          null null null)
  in
  let d = { pid; socket } in
  let give_up = now_ns () + 30_000_000_000 in
  let rec await () =
    let answer =
      try call socket (request P.Ping)
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    in
    match answer with
    | Ok _ -> d
    | Error _ when now_ns () < give_up ->
        Unix.sleepf 0.001;
        await ()
    | Error msg -> failwith ("daemon did not answer ping: " ^ msg)
  in
  await ()

let stop d =
  (try ignore (call d.socket (request P.Shutdown))
   with Unix.Unix_error _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid)

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* ---- gating ------------------------------------------------------ *)

let member name j = match Json.member name j with Ok v -> v | Error _ -> Json.Null

let without_wall = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "wall_ms") fields)
  | j -> j

let response_checks = function
  | Error msg -> [ Some msg ]
  | Ok (resp : P.response) ->
      [
        Gate.holds
          (Printf.sprintf "status %s (%s)" (P.status_name resp.P.status)
             (Option.value resp.P.reason ~default:""))
          (resp.P.status = P.Done);
        Gate.holds "result ok" (member "ok" resp.P.result = Json.Bool true);
      ]

(* What a direct in-process sweep says the daemon must answer. *)
let direct_sweep decoder n =
  let cfg = cfg () in
  let s = Lcp.Checker.soundness_sweep ~cfg (suite decoder) ~n in
  let c = s.Lcp_engine.Sweep.counters in
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  ( Json.String
      (if Lcp.Checker.is_pass (Lcp.Checker.verdict_of_sweep s) then "pass" else "fail"),
    ints
      Lcp_engine.Sweep.
        [
          ("candidates", c.candidates); ("connected", c.connected);
          ("classes", c.classes); ("dedup_hits", c.dedup_hits); ("kept", c.kept);
          ("checked", c.checked); ("passed", c.passed); ("violations", c.violations);
        ],
    ints (List.map (fun k -> (k, counter cfg k)) Session.work_counter_names) )

let sweep_checks direct (r : P.request) resp =
  match (r.P.kind, resp) with
  | P.Sweep { decoder; n; _ }, Ok (resp : P.response) ->
      let verdict, summary, counters = Hashtbl.find direct (decoder, n) in
      let res = resp.P.result in
      [
        Gate.holds "verdict = direct" (member "verdict" res = verdict);
        Gate.holds "summary counters = direct" (member "summary_counters" res = summary);
        Gate.holds "work counters = direct" (member "counters" res = counters);
      ]
  | _ -> []

(* ---- the load phase ---------------------------------------------- *)

type round = {
  responses : (P.response, string) result array array;
  latency_ns : int array array;
  wall_ns : int;
}

let drive d seqs =
  let responses = Array.map (fun s -> Array.make (Array.length s) (Error "not sent")) seqs in
  let latency_ns = Array.map (fun s -> Array.make (Array.length s) 0) seqs in
  let conn c =
    try
      Client.with_connection d.socket (fun cl ->
          Array.iteri
            (fun i r ->
              let t0 = now_ns () in
              let resp = Client.request cl r in
              latency_ns.(c).(i) <- now_ns () - t0;
              responses.(c).(i) <- resp)
            seqs.(c))
    with e -> responses.(c).(0) <- Error (Printexc.to_string e)
  in
  let (), wall_ns =
    timed (fun () ->
        Array.init (Array.length seqs) (Thread.create conn) |> Array.iter Thread.join)
  in
  { responses; latency_ns; wall_ns }

(* Client latencies in ms of every round, for the requests [keep]
   selects. *)
let latencies_ms ?(keep = fun _ -> true) seqs rounds =
  Array.of_list
    (List.concat_map
       (fun rd ->
         List.concat
           (List.init (Array.length seqs) (fun c ->
                List.filter_map Fun.id
                  (List.init (Array.length seqs.(c)) (fun i ->
                       if keep seqs.(c).(i) then Some (ms rd.latency_ns.(c).(i)) else None)))))
       rounds)

(* ---- traced-run probes ------------------------------------------- *)

(* The same requests through Session.execute in this process, no
   socket: the daemon's execution with transport and queueing taken
   out. Sharing is on and the caches start cold, as in a fresh daemon,
   and the warm-up pass runs first, so every request sees the table
   state it saw in the daemon. [around] wraps each execution. Returns
   each job request's outcome and execute time, and the wall of the
   sequence, warm-up excluded. *)
let replay ~around seqs =
  Lcp_engine.Sweep.clear_cache ();
  Lcp_engine.Eval_cache.clear_shared ();
  Lcp_engine.Eval_cache.set_sharing true;
  Fun.protect ~finally:(fun () -> Lcp_engine.Eval_cache.set_sharing false)
    (fun () ->
      let s = Session.create () in
      let exec (r : P.request) = Session.execute s r (Session.cfg_of_request s r ~emit:ignore) in
      List.iter (fun r -> ignore (exec r)) warmup;
      timed (fun () ->
          Array.map
            (Array.map (fun (r : P.request) ->
                 if P.is_control r.P.kind then None
                 else Some (around r (fun () -> timed (fun () -> exec r)))))
            seqs))

let per_op_us reqs f =
  Stats.median_of_runs 5 (fun () ->
      let (), ns = timed (fun () -> Array.iter f reqs) in
      float_of_int ns /. 1e3 /. float_of_int (Array.length reqs))

let server_counters d =
  match call d.socket (request P.Metrics) with
  | Ok resp -> (
      fun name ->
        match Json.member "counters" resp.P.result with
        | Ok c -> (match Json.member name c with Ok (Json.Int v) -> v | _ -> 0)
        | Error _ -> 0)
  | Error msg -> failwith ("metrics request: " ^ msg)

(* The replay must compute what the daemon answered. *)
let fidelity ctx seqs what replayed (daemon : round) =
  Array.iteri
    (fun c seq ->
      Array.iteri
        (fun i r ->
          match (replayed.(c).(i), daemon.responses.(c).(i)) with
          | Some ((status, _, payload), _), Ok resp ->
              Gate.op ctx.gate
                (Printf.sprintf "%s %s #%d.%d" what (kind_name r) c i)
                [
                  Gate.holds "status" (status = resp.P.status);
                  Gate.holds "payload" (without_wall payload = without_wall resp.P.result);
                ]
          | _ -> ())
        seq)
    seqs

(* The traced run is the replay with a span around every execution;
   [trace.overhead] compares it with the same replay untraced. *)
let traced_layers ctx seqs rounds ~server =
  let first = List.hd rounds in
  let plain, plain_ns = replay ~around:(fun _ f -> f ()) seqs in
  let tr = new_trace () in
  let traced, traced_ns =
    replay ~around:(fun r f -> Trace.span tr ("session." ^ kind_name r) f) seqs
  in
  fidelity ctx seqs "replay fidelity" plain first;
  fidelity ctx seqs "trace fidelity" traced first;
  let all_reqs = Array.concat (Array.to_list seqs) in
  let lines =
    Array.concat (Array.to_list first.responses)
    |> Array.to_list
    |> List.filter_map Result.to_option
    |> List.map (fun r -> Json.to_string (P.response_to_json r))
    |> Array.of_list
  in
  let client_p50 kind =
    m ("client." ^ kind ^ ".p50_ms") "ms"
      (Stats.median (latencies_ms ~keep:(fun r -> kind_name r = kind) seqs rounds))
  in
  (* (kind, execute ms, client latency ms) for every job request of
     every round *)
  let jobs =
    List.concat_map
      (fun rd ->
        List.concat
          (List.init (Array.length seqs) (fun c ->
               List.filter_map Fun.id
                 (List.init (Array.length seqs.(c)) (fun i ->
                      Option.map
                        (fun (_, ns) -> (kind_name seqs.(c).(i), ms ns, ms rd.latency_ns.(c).(i)))
                        traced.(c).(i))))))
      rounds
  in
  let execute_ms k =
    m ("session." ^ k ^ ".execute_ms") "ms"
      (Stats.median
         (Array.of_list (List.filter_map (fun (k', exec, _) -> if k' = k then Some exec else None) jobs)))
  in
  let cache name =
    Array.fold_left
      (Array.fold_left (fun a -> function
         | Ok resp -> (
             match Json.member name (member "cache" resp.P.result) with
             | Ok (Json.Int v) -> a + v
             | _ -> a)
         | Error _ -> a))
      0 first.responses
  in
  (* per round, the time a connection spent outside its requests,
     averaged over the connections *)
  let unaccounted rd =
    let lanes = Array.length rd.latency_ns in
    float_of_int
      (Array.fold_left (fun a lat -> a + rd.wall_ns - Array.fold_left ( + ) 0 lat) 0 rd.latency_ns
      / lanes)
  in
  List.map client_p50 [ "ping"; "check"; "prove"; "sweep" ]
  @ List.map execute_ms [ "check"; "prove"; "sweep" ]
  @ [
      m "protocol.encode_us" "us"
        (per_op_us all_reqs (fun r -> ignore (Json.to_string (P.request_to_json r))));
      m "protocol.decode_us" "us"
        (per_op_us lines (fun l ->
             ignore (Result.map P.response_of_json (Json.of_string l))));
      m "jobq.wait_ms" "ms"
        (Stats.median (Array.of_list (List.map (fun (_, exec, lat) -> lat -. exec) jobs)));
      count "server.requests" (server "serve/requests");
      count "server.rejected" (server "serve/rejected");
      count "server.coalesced" (server "serve/coalesced");
      count "server.cache_warm_hits" (server "serve/cache_warm_hits");
    ]
  @ eval_cache_layers ~hits:(cache "eval_cache_hits") ~misses:(cache "eval_cache_misses")
      ~shared_hits:(cache "eval_cache_shared_hits")
  @ [
      m "trace.unaccounted_s" "s"
        (Stats.median (Array.of_list (List.map unaccounted rounds)) /. 1e9);
      m "trace.overhead" "ratio" (ratio traced_ns plain_ns);
    ]

(* ---- the workload ------------------------------------------------ *)

(* The run is [segments] daemon lifetimes in a row. Each one starts a
   fresh daemon and warms it up, which is one set-up sample, then
   drives its share of the rounds. Spreading the set-up samples over
   the whole run keeps a short slow spell of the machine from setting
   the median. *)
let segments = 9

let run ctx =
  let seqs = sequences ctx in
  let socket = Filename.concat ctx.tmp (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let current = ref None in
  Fun.protect ~finally:(fun () -> Option.iter kill !current) (fun () ->
      (* set-up: daemon start until its first ping answers, plus the
         warm-up pass *)
      let start () =
        let d, ns =
          timed (fun () ->
              let d = spawn ctx ~socket in
              current := Some d;
              List.iter
                (fun r ->
                  Gate.op ctx.gate ("warm-up " ^ kind_name r) (response_checks (call socket r)))
                warmup;
              d)
        in
        (d, secs ns)
      in
      let segments = if ctx.traced then 1 else segments in
      (* rounds of a quarter second, their number fixed by --seconds *)
      let rounds_per_segment =
        max 1 (Float.to_int (Float.round (ctx.seconds /. 0.25)) / segments)
      in
      let lifetimes =
        List.init segments (fun k ->
            let d, setup_s = start () in
            let rounds = List.init rounds_per_segment (fun _ -> drive d seqs) in
            let peak = peak_rss_mb (string_of_int d.pid) in
            let server = if k = segments - 1 then Some (server_counters d) else None in
            stop d;
            current := None;
            (setup_s, rounds, peak, server))
      in
      let rounds = List.concat_map (fun (_, r, _, _) -> r) lifetimes in
      let server = Option.get (List.find_map (fun (_, _, _, s) -> s) lifetimes) in
      let direct = Hashtbl.create 4 in
      Array.iter
        (fun p ->
          List.iter
            (fun n -> Hashtbl.replace direct (p.decoder, n) (direct_sweep p.decoder n))
            sweep_orders)
        pools;
      List.iter
        (fun rd ->
          Array.iteri
            (fun c seq ->
              Array.iteri
                (fun i r ->
                  let resp = rd.responses.(c).(i) in
                  Gate.op ctx.gate (kind_name r)
                    (response_checks resp @ sweep_checks direct r resp))
                seq)
            seqs)
        rounds;
      let lat = latencies_ms seqs rounds in
      let p99 =
        match Stats.percentile ~min_beyond:10 ~pct:99 lat with
        | Ok v -> v
        | Error msg ->
            Gate.op ctx.gate "latency p99" [ Some msg ];
            0.
      in
      let walls = List.map (fun rd -> rd.wall_ns) rounds in
      let client =
        [
          m "client.latency_p50_ms" "ms" (Stats.median lat);
          m "client.latency_p99_ms" "ms" p99;
          m "client.throughput_rps" "1/s"
            (float_of_int (Array.length lat) /. secs (List.fold_left ( + ) 0 walls));
        ]
      in
      let layers = if ctx.traced then client @ traced_layers ctx seqs rounds ~server else [] in
      {
        e2e =
          [
            m "setup_s" "s"
              (Stats.median (Array.of_list (List.map (fun (s, _, _, _) -> s) lifetimes)));
            m "wall_s" "s" (secs (List.fold_left min max_int walls));
            m "peak_rss_mb" "MB" (List.fold_left (fun a (_, _, p, _) -> Float.max a p) 0. lifetimes);
          ];
        layers;
        info =
          List.map (fun x -> (x.name, x.value)) client
          @ [
              ("client.requests", float_of_int (Array.length lat));
              ("client.beyond_p99", float_of_int (Stats.beyond ~pct:99 (Array.length lat)));
            ];
      })
