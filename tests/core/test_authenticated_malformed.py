"""Totality of the data plane on authenticated-but-malformed messages.

A digest proves who sent a message, not that it is well formed.  Every
combination of header fields below is signed under each key the switch
holds and offered on the CPU port and on a keyed port:
``DataplaneSwitch.process`` must never raise (inside a service shard an
exception is a dead event loop), and every outcome must be one the
operator can read — a response, an alert with a drop, a drop with a
reason, or an authenticated feedback message handed to the host program.

The discrete space is enumerated, not sampled (only ``keyVer`` and the
field values are seeded draws): the two cases that threw before ISSUE 23
(a redirected port-key leg naming a port the switch does not have) are
one in ~10 000, which a sampled battery finds by luck.
"""

import itertools
import random

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.constants import P4AUTH, P4AUTH_HEADER, P4AUTH_HEADERS
from repro.core.digest import DigestEngine
from repro.core.keys import LOCAL_KEY_INDEX
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import Drop, Emit, ToController
from repro.dataplane.switch import DataplaneSwitch

NUM_PORTS = 4
KEYED_PORT = 2
K_SEED = 0x5EED
K_AUTH = 0xA07A
K_LOCAL = (0x10CA10, 0x10CA11)   # by version slot
K_PORT = (0x9027A0, 0x9027A1)

HDR_TYPES = (0, 1, 2, 3, 4, 9)
MSG_TYPES = range(0, 12)
FLAGS = (0, 1, NUM_PORTS, NUM_PORTS + 1, 200, 255)
KEY_VERS = (0, 1, 2, 255)
PAYLOADS = P4AUTH_HEADERS[1:]
KEYS = ("seed", "auth", "local", "port")
INGRESS = (DataplaneSwitch.CPU_PORT, KEYED_PORT)


def keyed_switch():
    switch = DataplaneSwitch("s1", num_ports=NUM_PORTS)
    switch.registers.define("demo", 64, 4)
    dataplane = P4AuthDataplane(switch, K_SEED).install()
    dataplane.map_register("demo")
    switch.registers.get("p4auth_kauth").write(0, K_AUTH)
    for version in (1, 0):  # ends with slot 0 active
        dataplane.keys.install_at(LOCAL_KEY_INDEX, K_LOCAL[version], version)
        dataplane.keys.install_at(KEYED_PORT, K_PORT[version], version)
    return switch, dataplane


def signed_message(rng, hdr_type, msg_type, flags, key_ver, payload, key):
    packet = Packet()
    packet.push(P4AUTH, P4AUTH_HEADER.instantiate(
        hdrType=hdr_type, msgType=msg_type, seqNum=rng.getrandbits(32),
        keyVer=key_ver, flags=flags, length=payload.byte_width, digest=0))
    packet.push(payload.name, payload.instantiate(
        **{name: rng.getrandbits(bits) for name, bits in payload.fields}))
    DigestEngine().sign({"seed": K_SEED, "auth": K_AUTH,
                         "local": K_LOCAL[key_ver % 2],
                         "port": K_PORT[key_ver % 2]}[key], packet)
    return packet


def test_no_authenticated_message_throws_or_vanishes():
    rng = random.Random(23)
    served = alerted = dropped = handed_on = 0
    for case in itertools.product(HDR_TYPES, MSG_TYPES, FLAGS, PAYLOADS,
                                  KEYS, INGRESS):
        hdr_type, msg_type, flags, payload, key, ingress = case
        switch, dataplane = keyed_switch()
        packet = signed_message(rng, hdr_type, msg_type, flags,
                                rng.choice(KEY_VERS), payload, key)
        actions = switch.process(packet, ingress)  # must not raise
        drops = [a for a in actions if isinstance(a, Drop)]
        assert all(drop.reason for drop in drops), case
        if drops:
            assert len(drops) == 1, case
            if dataplane.stats.alerts_raised:
                alerted += 1
            else:
                dropped += 1
        elif any(isinstance(a, (ToController, Emit)) for a in actions):
            served += 1
        else:
            # Nothing visible: only authenticated DP-DP feedback, which
            # the host program's stages (none here) would consume.
            assert packet.metadata.get("p4auth_verified"), case
            handed_on += 1
    # Every class of outcome is reached, so the battery is not vacuous.
    assert min(served, alerted, dropped, handed_on) > 0
