(* the CLI under test: under `dune runtest` the cwd is
   _build/default/test (the CLI is a declared dep); under `dune exec`
   it is the project root *)
let path () =
  let candidates =
    [
      Filename.concat Filename.parent_dir_name "bin/pasched.exe";
      Filename.concat "_build/default/bin" "pasched.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "pasched.exe not found next to the test"
