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

from repro.core.constants import (
    HdrType,
    RegOpType,
    KeyExchType,
    AlertCode,
    P4AUTH_HEADER,
    REG_OP_HEADER,
    EAK_HEADER,
    ADHKD_HEADER,
    KEYCTL_HEADER,
    ALERT_HEADER,
)
from repro.core.messages import (
    P4AUTH,
    build_reg_read_request,
    build_reg_write_request,
    build_reg_response,
    build_eak_message,
    build_adhkd_message,
    build_keyctl_message,
    build_alert,
    digest_material,
)
from repro.core.digest import DigestEngine
from repro.core.keys import DataplaneKeyStore, ControllerKeyStore, VersionedKey
from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.core.kmp import KeyManagementProtocol, KmpStats

__all__ = [
    "HdrType",
    "RegOpType",
    "KeyExchType",
    "AlertCode",
    "P4AUTH_HEADER",
    "REG_OP_HEADER",
    "EAK_HEADER",
    "ADHKD_HEADER",
    "KEYCTL_HEADER",
    "ALERT_HEADER",
    "P4AUTH",
    "build_reg_read_request",
    "build_reg_write_request",
    "build_reg_response",
    "build_eak_message",
    "build_adhkd_message",
    "build_keyctl_message",
    "build_alert",
    "digest_material",
    "DigestEngine",
    "DataplaneKeyStore",
    "ControllerKeyStore",
    "VersionedKey",
    "P4AuthDataplane",
    "P4AuthController",
    "KeyManagementProtocol",
    "KmpStats",
]
