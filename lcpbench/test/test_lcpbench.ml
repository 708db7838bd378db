(* The benchmark's own arithmetic: percentile selection, span self
   times and unaccounted time, and failed-operation counting. *)

open Lcpbench

let float_ok = Alcotest.(result (float 0.) string)
let samples n = Array.init n (fun i -> float_of_int (n - i))

let percentile_ranks () =
  Alcotest.(check int) "p50 of 10 is the 5th" 5 (Stats.rank ~pct:50 10);
  Alcotest.(check int) "p50 of 11 is the 6th" 6 (Stats.rank ~pct:50 11);
  Alcotest.(check int) "p99 of 1000 is the 990th" 990 (Stats.rank ~pct:99 1000);
  Alcotest.(check int) "p99 of 1001 is the 991st" 991 (Stats.rank ~pct:99 1001);
  Alcotest.(check int) "p100 is the maximum" 7 (Stats.rank ~pct:100 7);
  Alcotest.(check int) "rank is at least 1" 1 (Stats.rank ~pct:1 3);
  Alcotest.check float_ok "p50 of 1..10, unsorted input" (Ok 5.)
    (Stats.percentile ~pct:50 (samples 10));
  Alcotest.check float_ok "p99 of 1..1000" (Ok 990.)
    (Stats.percentile ~pct:99 (samples 1000));
  Alcotest.(check (float 0.)) "median" 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |])

let p99_needs_ten_beyond () =
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stats.beyond ~pct:99 1000);
  Alcotest.(check int) "999 samples leave 9" 9 (Stats.beyond ~pct:99 999);
  Alcotest.check float_ok "accepted at 1000" (Ok 990.)
    (Stats.percentile ~min_beyond:10 ~pct:99 (samples 1000));
  Alcotest.(check bool) "refused at 999" true
    (Result.is_error (Stats.percentile ~min_beyond:10 ~pct:99 (samples 999)));
  Alcotest.(check bool) "refused for a single sample" true
    (Result.is_error (Stats.percentile ~min_beyond:10 ~pct:99 [| 1. |]));
  Alcotest.(check bool) "no samples" true (Result.is_error (Stats.percentile ~pct:50 [||]))

(* A clock the test advances by hand. *)
let fake_clock () =
  let t = ref 0 in
  ((fun () -> !t), fun d -> t := !t + d)

let nested_spans () =
  let now, tick = fake_clock () in
  let tr = Trace.create ~now () in
  let dec = Trace.leaf_counter tr "decoder" in
  (* a 10-unit gap, then outer = 2 + inner (3 + leaf 4 + 1) + 5 + leaf 6,
     a 7-unit gap and a 1-unit outer *)
  tick 10;
  Trace.span tr "outer" (fun () ->
      tick 2;
      Trace.span tr "inner" (fun () ->
          tick 3;
          Trace.leaf tr dec (fun () -> tick 4) ();
          tick 1);
      tick 5;
      Trace.leaf tr dec (fun () -> tick 6) ());
  tick 7;
  Trace.span tr "outer" (fun () -> tick 1);
  let spans = Trace.spans tr in
  Alcotest.(check int) "outer total" 22 (Trace.total_ns ~name:"outer" spans);
  Alcotest.(check int) "outer self: minus inner and its own leaf" 8
    (Trace.self_ns ~name:"outer" spans);
  Alcotest.(check int) "inner self: minus its leaf" 4 (Trace.self_ns ~name:"inner" spans);
  Alcotest.(check int) "outer count" 2 (Trace.count ~name:"outer" spans);
  Alcotest.(check (list (pair int int))) "leaf calls and time" [ (2, 10) ]
    (List.map (fun l -> (l.Trace.calls, l.Trace.ns)) (Trace.leaves tr));
  Alcotest.(check int) "unaccounted: the gaps between top-level spans" 17
    (Trace.unaccounted_ns ~wall_ns:(now ()) spans)

let span_survives_exception () =
  let now, tick = fake_clock () in
  let tr = Trace.create ~now () in
  (try Trace.span tr "boom" (fun () -> tick 3; failwith "x") with Failure _ -> ());
  Trace.span tr "after" (fun () -> tick 1);
  let spans = Trace.spans tr in
  Alcotest.(check int) "raising span recorded" 3 (Trace.total_ns ~name:"boom" spans);
  Alcotest.(check bool) "stack popped: next span is top-level" true
    (List.for_all (fun s -> s.Trace.parent = None) spans)

let failed_ops () =
  let g = Gate.create () in
  Gate.op g "good" [ Gate.eq "classes" ~expected:3 3; Gate.holds "verdict" true ];
  Gate.op g "bad" [ Gate.eq "classes" ~expected:3 4; Gate.holds "verdict" false ];
  Gate.op g "empty" [];
  Alcotest.(check int) "attempted" 3 (Gate.attempted g);
  Alcotest.(check int) "one op failed, however many of its checks" 1 (Gate.failed g);
  Alcotest.(check (list string)) "problems name op and check"
    [ "bad: classes: expected 3, got 4"; "bad: verdict" ]
    (Gate.problems g)

let () =
  Alcotest.run "lcpbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile ranks" `Quick percentile_ranks;
          Alcotest.test_case "p99 needs ten samples beyond" `Quick p99_needs_ten_beyond;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time and unaccounted" `Quick nested_spans;
          Alcotest.test_case "span survives exception" `Quick span_survives_exception;
        ] );
      ("gate", [ Alcotest.test_case "failed ops" `Quick failed_ops ]);
    ]
