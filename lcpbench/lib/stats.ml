let rank ~pct n = max 1 (((pct * n) + 99) / 100)
let beyond ~pct n = n - rank ~pct n

let percentile ?(min_beyond = 0) ~pct samples =
  let n = Array.length samples in
  if pct < 1 || pct > 100 then invalid_arg "Stats.percentile: pct outside 1..100"
  else if n = 0 then Error "no samples"
  else if beyond ~pct n < min_beyond then
    Error
      (Printf.sprintf "p%d of %d samples has %d beyond it; %d needed" pct n
         (beyond ~pct n) min_beyond)
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Ok sorted.(rank ~pct n - 1)
  end

let median samples =
  match percentile ~pct:50 samples with
  | Ok m -> m
  | Error msg -> invalid_arg ("Stats.median: " ^ msg)

let median_of_runs k f = median (Array.init k (fun _ -> f ()))
