"""Digest brute forcing: loud, slow, and (at test scale) futile."""

from repro.attacks.bruteforce import DigestBruteForcer
from tests.conftest import Deployment


def test_guessed_digests_rejected_and_alerted(single_switch):
    dep = single_switch
    reg_id = dep.switch("s1").registers.id_of("demo")
    attacker = DigestBruteForcer(dep.net, "s1", reg_id, index=0,
                                 value=0x41414141)
    attacker.attempt(guesses=200)
    dep.run(1.0)
    stats = dep.dataplanes["s1"].stats
    # Every guess failed, none wrote state, and the data plane screamed.
    assert stats.digest_fail_cdp == 200
    assert dep.switch("s1").registers.get("demo").read(0) == 0
    assert stats.alerts_raised > 0
    assert attacker.attempts == 200


def test_every_attempt_is_visible(single_switch):
    """§VIII: 'during these adversarial trials ... an alert is raised,
    revealing the possibility of the adversary' — no free guesses."""
    dep = single_switch
    dep.dataplanes["s1"].config.alert_threshold = None  # no rate limit
    reg_id = dep.switch("s1").registers.id_of("demo")
    attacker = DigestBruteForcer(dep.net, "s1", reg_id, index=0, value=1)
    attacker.attempt(guesses=50)
    dep.run(1.0)
    # One nAck per guess reaches the controller; none match a request it
    # sent, so they land in the unsolicited-nAck counter — the §VIII
    # "requests sent vs responses received" discrepancy signal.
    assert dep.controller.stats.unsolicited_nacks == 50


def test_expected_trials_is_2_to_31():
    assert DigestBruteForcer.expected_trials() == 2 ** 31


def test_stop_withdraws_the_guesses_not_yet_delivered(single_switch):
    dep = single_switch
    reg_id = dep.switch("s1").registers.id_of("demo")
    attacker = DigestBruteForcer(dep.net, "s1", reg_id, index=0, value=1)
    attacker.attempt(guesses=10, spacing_s=0.01)
    assert attacker.attempts == 10  # queued counts until withdrawn
    dep.run(0.035)  # guesses at +0, +0.01, +0.02, +0.03 have landed
    attacker.stop()
    attacker.stop()  # idempotent
    dep.run(1.0)
    assert dep.dataplanes["s1"].stats.digest_fail_cdp == 4
    assert attacker.attempts == attacker.stats.injected == 4
