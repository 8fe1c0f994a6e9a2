type profile = {
  name : string;
  policy_free : bool;
  services : string list;
  kernel_words : int option;
  mediates_io : bool;
  scheduling : string;
  verification : string;
}

let sue_profile cfg =
  let t = Sue.build cfg in
  {
    name = "separation kernel (SUE)";
    policy_free = true;
    services = [ "SWAP"; "SEND"; "RECV"; "interrupt forwarding" ];
    kernel_words = Some (Sue.kernel_words t);
    mediates_io = false;
    scheduling = "round-robin, voluntary yield";
    verification = "Proof of Separability (six conditions, exhaustive/randomized)";
  }

let conventional_profile =
  {
    name = "conventional kernel (KSOS-lite)";
    policy_free = false;
    services = [ "create"; "read"; "write"; "append"; "delete"; "ipc-send" ];
    kernel_words = None;
    mediates_io = true;
    scheduling = "kernel-managed processes";
    verification = "IFA on specifications + trusted-process review";
  }

let pp_profile ppf p =
  Fmt.pf ppf "@[<v2>%s:@ policy-free: %b@ services: %s@ kernel words: %s@ mediates I/O: %b@ \
              scheduling: %s@ verification: %s@]"
    p.name p.policy_free (String.concat ", " p.services)
    (match p.kernel_words with Some w -> string_of_int w | None -> "n/a")
    p.mediates_io p.scheduling p.verification
