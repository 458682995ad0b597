"""P4Auth: the paper's primary contribution.

Two cooperating protocol suites (paper §V, §VI):

- the **authentication protocol** — every C-DP register read/write message
  and every DP-DP feedback message carries a keyed 32-bit digest, computed
  and verified *in the data plane* (:mod:`repro.core.auth_dataplane`) and
  at the controller (:mod:`repro.core.controller`);
- the **key management protocol** (KMP, :mod:`repro.core.kmp`) — EAK and
  ADHKD exchanges establish and roll the local key (controller <-> switch)
  and per-port keys (switch <-> switch) without ever trusting the switch
  OS or the network links the messages cross.
"""
