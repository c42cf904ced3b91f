(* End-to-end integration of the command-line tools: a real server
   process on a Unix socket, real client processes, and the on-disk
   inspector — the whole deployment story of bin/. *)

let check = Alcotest.check

let exe name =
  (* Tests run from _build/default/test; the binaries are siblings. *)
  let candidates =
    [
      Filename.concat "../bin" name;
      Filename.concat "bin" name;
      Filename.concat "_build/default/bin" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.fail ("cannot locate " ^ name ^ " from " ^ Sys.getcwd ())

let run_capture argv =
  let stdout_r, stdout_w = Unix.pipe () in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin stdout_w Unix.stderr
  in
  Unix.close stdout_w;
  let ic = Unix.in_channel_of_descr stdout_r in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED n -> n | _ -> -1 in
  (code, Buffer.contents buf)

let with_server ?(dir = Helpers.fresh_dir "cli") ?(tag = "cli") f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdb-%s-%d.sock" tag (Unix.getpid ()))
  in
  let server =
    Unix.create_process (exe "smalldb_ns.exe")
      [| "smalldb_ns"; "serve"; "--dir"; dir; "--socket"; socket |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* Wait for the socket to appear. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if not (Sys.file_exists socket) then Alcotest.fail "server did not start";
  Fun.protect
    ~finally:(fun () ->
      Unix.kill server Sys.sigterm;
      ignore (Unix.waitpid [] server))
    (fun () -> f ~dir ~socket)

let run_client ~socket args =
  let argv =
    Array.of_list ((exe "smalldb_ns.exe" :: args) @ [ "--socket"; socket ])
  in
  let code, out = run_capture argv in
  (code, String.trim out)

let test_cli_end_to_end () =
  with_server (fun ~dir ~socket ->
      let ok args expect =
        let code, out = run_client ~socket args in
        check Alcotest.int ("exit: " ^ String.concat " " args) 0 code;
        match expect with
        | Some want -> check Alcotest.string (String.concat " " args) want out
        | None -> ()
      in
      ok [ "set"; "/hosts/acacia"; "16.9.0.11" ] None;
      ok [ "set"; "/hosts/buckeye"; "16.9.0.12" ] None;
      ok [ "lookup"; "/hosts/acacia" ] (Some "16.9.0.11");
      ok [ "ls"; "/hosts" ] (Some "acacia\nbuckeye");
      ok [ "find"; "/hosts/*" ]
        (Some "/hosts/acacia\t16.9.0.11\n/hosts/buckeye\t16.9.0.12");
      ok [ "mkdir"; "/empty/leaf" ] None;
      ok [ "rm"; "/hosts/buckeye" ] None;
      (* Lookup of an unbound name exits non-zero. *)
      let code, _ = run_client ~socket [ "lookup"; "/hosts/buckeye" ] in
      check Alcotest.int "unbound exit code" 3 code;
      (* CAS through the CLI. *)
      ok [ "cas"; "/hosts/acacia"; "--expected"; "16.9.0.11"; "16.9.0.99" ] None;
      let code, _ =
        run_client ~socket [ "cas"; "/hosts/acacia"; "--expected"; "stale"; "x" ]
      in
      check Alcotest.int "stale cas refused" 4 code;
      ok [ "checkpoint" ] None;
      (* Status shows a sane lsn. *)
      let code, out = run_client ~socket [ "status" ] in
      check Alcotest.int "status exit" 0 code;
      Alcotest.check Alcotest.bool "status mentions lsn" true
        (String.length out > 0
        && String.sub out 0 4 = "lsn:");
      let lsn = Scanf.sscanf out "lsn: %d" Fun.id in
      (* The inspector reads the directory the server just wrote: the
         checkpoint above started the current log at the store's lsn. *)
      let code, out = run_capture [| exe "sdb_inspect.exe"; dir |] in
      check Alcotest.int "inspect exit" 0 code;
      Alcotest.check Alcotest.bool "inspect names a generation" true
        (String.length out > 0);
      let base = Printf.sprintf "base lsn %d\n" lsn in
      Alcotest.check Alcotest.bool ("inspect shows the log's " ^ base) true
        (Helpers.contains ~needle:base out))

(* §4's restore from another replica, as an operator runs it: restore
   a fresh directory from a serving store, then serve the restored
   directory; both servers answer the same LSN and digest. *)
let test_cli_restore () =
  with_server (fun ~dir:_ ~socket ->
      let ok args =
        let code, _ = run_client ~socket args in
        check Alcotest.int ("exit: " ^ String.concat " " args) 0 code
      in
      ok [ "set"; "/hosts/acacia"; "16.9.0.11" ];
      ok [ "checkpoint" ];
      ok [ "set"; "/hosts/buckeye"; "16.9.0.12" ];
      let status socket =
        let code, out = run_client ~socket [ "status" ] in
        check Alcotest.int "status exit" 0 code;
        let line key =
          match
            List.find_opt
              (fun l -> Helpers.contains ~needle:key l)
              (String.split_on_char '\n' out)
          with
          | Some l -> l
          | None -> Alcotest.fail ("status has no " ^ key)
        in
        (line "lsn:", line "digest:")
      in
      let source = status socket in
      let copy = Helpers.fresh_dir "cli-restore" in
      let code, out =
        run_capture
          [| exe "smalldb_ns.exe"; "restore"; "--from"; socket; "--dir"; copy |]
      in
      check Alcotest.int "restore exit" 0 code;
      check Alcotest.string "restore prints the source's lsn and digest"
        (fst source ^ "\n" ^ snd source) (String.trim out);
      with_server ~dir:copy ~tag:"cli-restored" (fun ~dir:_ ~socket ->
          let restored = status socket in
          check Alcotest.(pair string string) "restored store serves the source's lsn and digest"
            source restored))

let () =

  Helpers.run "cli"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "server + clients + inspector" `Slow test_cli_end_to_end;
          Alcotest.test_case "restore from a serving replica" `Slow test_cli_restore;
        ] );
    ]
