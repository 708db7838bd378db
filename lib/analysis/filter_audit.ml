open Lcp
open Lcp_graph
open Lcp_local

let exhaustive_max_n = 3

let breach ~decoder ~source inst u what =
  Finding.make Finding.Filter_unsound ~decoder
    (Format.asprintf
       "%s: node %d accepts but fails its declared %s, on %a" source u what
       Instance.pp inst)

let corpus_breach ~decoder dec corpus =
  List.find_map
    (fun ((it : Corpus.item), verdicts) ->
      let inst = it.Corpus.inst in
      let rec scan u =
        if u = Array.length verdicts then None
        else if not verdicts.(u) then scan (u + 1)
        else
          match Decoder.violated_condition dec inst u with
          | Some what -> Some (breach ~decoder ~source:"corpus" inst u what)
          | None -> scan (u + 1)
      in
      scan 0)
    corpus

(* Every labeling of [u]'s ball over the alphabet (nodes outside the
   ball keep the first symbol; the verdict cannot see them), decoded
   through a private acceptance table. *)
let ball_breach ~decoder (suite : Decoder.suite) (inst, u) =
  let dec = suite.Decoder.dec in
  match suite.Decoder.adversary_alphabet inst with
  | [] -> None
  | first :: _ as alphabet ->
      let ec =
        Lcp_engine.Eval_cache.create ~radius:dec.Decoder.radius
          ~accepts:dec.Decoder.accepts ~alphabet inst
      in
      let lab = Array.make (Instance.order inst) first in
      let ball = Lcp_engine.Eval_cache.ball ec u in
      let exception Breach of Finding.t in
      let rec go i =
        if i = Array.length ball then begin
          if Lcp_engine.Eval_cache.accepts ec lab u then
            let labeled = Instance.with_labels inst (Array.copy lab) in
            match Decoder.violated_condition dec labeled u with
            | Some what ->
                raise
                  (Breach
                     (breach ~decoder ~source:"closed-ball enumeration" labeled
                        u what))
            | None -> ()
        end
        else
          List.iter
            (fun s ->
              lab.(ball.(i)) <- s;
              go (i + 1))
            alphabet
      in
      (try
         go 0;
         None
       with Breach f -> Some f)

let check ~jobs ~max_n ~rng ~decoder (suite : Decoder.suite) corpus =
  let dec = suite.Decoder.dec in
  if dec.Decoder.conditions = None then []
  else
    let from_corpus = corpus_breach ~decoder dec corpus in
    (* one task per (configured instance, node), drawn up front so the
       RNG is consumed identically for every [jobs]; the first breach in
       task order is reported, whichever domain finds one first *)
    let tasks =
      List.init (min max_n exhaustive_max_n) (fun i -> i + 1)
      |> List.concat_map Enumerate.classes
      |> List.concat_map (fun g -> [ Instance.make g; Instance.random rng g ])
      |> List.concat_map (fun inst ->
             List.init (Instance.order inst) (fun u -> (inst, u)))
      |> Array.of_list
    in
    let from_balls =
      Lcp_engine.Pool.search ~jobs (Array.length tasks) (fun i ->
          ball_breach ~decoder suite tasks.(i))
      |> Option.map snd
    in
    List.filter_map Fun.id [ from_corpus; from_balls ]
