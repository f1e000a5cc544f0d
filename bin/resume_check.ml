(* Build-time guard for the durability layer: drive the real CLI through
   the kill → resume → cold → warm-cache lifecycle and the --all
   exit-code contract.

   1. A corpus run is killed mid-flight by an injected kill-point
      (--crash-at, exit 99), leaving a partial journal and cache.
   2. --resume finishes it; its report envelope must be BYTE-identical
      to the one an uninterrupted run writes, and to what `merge` makes
      of the same journal and cache (resume = merge one journal).
   3. A warm-cache re-run must restore every app from the cache
      (cache.hits == app count, no misses, every envelope entry
      "cached": true) without running any pipeline phase.
   4. --force-crash must quarantine the app and exit 2; a starved run
      with the ladder disabled must exit 3.

   Invoked from the runtest alias with the extractocol binary's path;
   all intermediate state lives in a private temp directory. *)

module C = Check_common
module Json = Extr_httpmodel.Json

let ck = C.create "resume_check"

let bool_member key obj =
  match Json.member key obj with Some (Json.Bool b) -> Some b | _ -> None

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let check exe =
  (* Dune passes the binary as a bare relative name; qualify it so the
     shell execs it instead of searching PATH. *)
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "resume_check.%d" (Unix.getpid ()))
  in
  Sys.mkdir tmp 0o755;
  let p name = Filename.concat tmp name in
  (* Run the CLI, demand the expected exit code, return its output. *)
  let run_cli ~expect label args =
    let out = p (label ^ ".out") in
    let code =
      Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:out)
    in
    if code <> expect then
      C.fail ck "%s run exited %d, expected %d (see %s)" label code expect out;
    C.read_file out
  in
  (* Everything here pins --jobs 1: this guard checks the sequential
     lifecycle (pool_check covers the parallel one), and kill-point
     occurrence counts are per-process — under a pool each worker
     counts its own phases, so "the 2nd interpretation phase" would
     name a different app. *)
  (* 1: kill mid-run — the 2nd interpretation phase never returns. *)
  let _ =
    run_cli ~expect:99 "killed"
      [
        "--all"; "--jobs"; "1"; "--journal"; p "journal.jsonl"; "--cache-dir";
        p "cache"; "--crash-at"; "pipeline.interpretation@2";
      ]
  in
  (* 2: resume it, and 3: run the same corpus uninterrupted. *)
  let resumed_out =
    run_cli ~expect:0 "resumed"
      [
        "--all"; "--jobs"; "1"; "--resume"; "--journal"; p "journal.jsonl";
        "--cache-dir"; p "cache"; "--report-out"; p "resumed.json";
      ]
  in
  if not (C.contains ~needle:"[resumed]" resumed_out) then
    C.fail ck "resumed run restored nothing from the journal";
  let _ =
    run_cli ~expect:0 "merged"
      [
        "merge"; "--journal"; p "journal.jsonl"; "--cache-dir"; p "cache";
        "--report-out"; p "merged.json";
      ]
  in
  let _ =
    run_cli ~expect:0 "cold"
      [
        "--all"; "--jobs"; "1"; "--journal"; p "cold-journal.jsonl";
        "--cache-dir"; p "cold-cache"; "--report-out"; p "cold.json";
      ]
  in
  let resumed = C.read_file (p "resumed.json") in
  if not (String.equal resumed (C.read_file (p "merged.json"))) then
    C.fail ck
      "merging the resumed journal is not byte-identical to the resumed \
       report (%s vs %s)"
      (p "merged.json") (p "resumed.json");
  let cold = C.read_file (p "cold.json") in
  if not (String.equal resumed cold) then
    C.fail ck
      "resumed report is not byte-identical to the uninterrupted run's (%s vs %s)"
      (p "resumed.json") (p "cold.json");
  (* 3: warm-cache re-run over the cold run's cache. *)
  let _ =
    run_cli ~expect:0 "warm"
      [
        "--all"; "--jobs"; "1"; "--cache-dir"; p "cold-cache"; "--report-out";
        p "warm.json"; "--metrics-out"; p "metrics.json";
      ]
  in
  let apps =
    match C.list_member "apps" (C.load_json ck (p "warm.json")) with
    | Some l -> l
    | None ->
        C.fail ck "warm report has no \"apps\" array";
        []
  in
  List.iter
    (fun app ->
      if bool_member "cached" app <> Some true then
        C.fail ck "warm run re-analyzed %s instead of using the cache"
          (Option.value (C.str_member "app" app) ~default:"?"))
    apps;
  let samples =
    match C.list_member "metrics" (C.load_json ck (p "metrics.json")) with
    | Some l -> l
    | None ->
        C.fail ck "warm metrics snapshot has no \"metrics\" array";
        []
  in
  let count name =
    List.fold_left
      (fun acc s ->
        if C.str_member "name" s = Some name then
          acc + Option.value (C.int_member "count" s) ~default:0
        else acc)
      0 samples
  in
  if count "cache.hits" <> List.length apps then
    C.fail ck "warm run: cache.hits = %d, expected one per app (%d)"
      (count "cache.hits") (List.length apps);
  if count "cache.misses" <> 0 then
    C.fail ck "warm run: %d cache.misses on a fully warm cache"
      (count "cache.misses");
  (* 4: the exit-code contract — quarantine (2) and degraded (3). *)
  let quarantine_out =
    run_cli ~expect:2 "quarantined"
      [
        "--all"; "--jobs"; "1"; "--cache-dir"; p "cold-cache"; "--force-crash";
        "radio reddit";
      ]
  in
  if not (C.contains ~needle:"quarantined: radio reddit" quarantine_out) then
    C.fail ck "force-crashed app missing from the quarantine list";
  let _ =
    run_cli ~expect:3 "degraded"
      [ "--all"; "--jobs"; "1"; "--max-steps"; "500"; "--retries"; "1" ]
  in
  if ck.C.ck_failures = 0 then remove_tree tmp
  else Fmt.epr "resume_check: intermediate state kept in %s@." tmp

let () =
  match Sys.argv with
  | [| _; exe |] ->
      check exe;
      C.finish ck
  | _ -> C.usage ck "EXTRACTOCOL_BINARY"
