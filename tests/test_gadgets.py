import random

import pytest

from lpndetect import (
    Budget,
    FAILS,
    HOLDS,
    check_assumptions,
    check_opacity,
    check_strong,
    check_weak,
    coverable,
    make_net,
)
from lpndetect.gadgets import (
    coverability_to_strong,
    inclusion_to_weak,
    secret_marking,
    selfloop_unobservable,
)
from lpndetect.net import EPSILON, InputError
from lpndetect.textio import render_lpn

from netgen import bounded_observable_net, language_inclusion, random_observable_net


def small_observable(rng):
    return random_observable_net(
        rng, max_places=3, max_trans=3, max_weight=1, symbols=("s", "c")
    )


def small_bounded(rng):
    return bounded_observable_net(
        rng, max_places=3, max_trans=3, max_weight=1, symbols=("s", "c")
    )


def nonzero_target(rng, net):
    target = [rng.randint(0, 2) for _ in net.places]
    if not any(target):
        target[rng.randrange(len(target))] = 1
    return tuple(target)


class TestCoverabilityGadget:
    def test_structure(self, gadcov):
        net = gadcov.net
        assert net.places[-3:] == ("p_tag1", "p_tag2", "p_run")
        assert net.transitions[-3:] == ("t_probe1", "t_probe2", "t_run")
        assert net.label("t_probe1") is EPSILON
        assert net.label("t_probe2") is EPSILON
        assert net.label("t_run") == "t_run"
        assert net.initial_marking[-3:] == (0, 0, 1)
        # original transitions are relabeled by their own identifiers
        assert net.label("v") == "v"

    def test_provenance_total(self, gadcov):
        added_p = set(gadcov.net.places) - {"p"}
        added_t = set(gadcov.net.transitions) - {"v"}
        assert added_p | added_t == set(gadcov.provenance)

    def test_rejects_unobservable_input(self):
        net = make_net(["p"], {"u": (EPSILON, {}, {"p": 1})}, {})
        with pytest.raises(InputError):
            coverability_to_strong(net, (0,))

    def test_rejects_identifier_clash(self):
        net = make_net(["p_run"], {"t": ("a", {}, {"p_run": 1})}, {})
        with pytest.raises(InputError):
            coverability_to_strong(net, (0,))

    def test_metamorphic(self):
        rng = random.Random(61)
        budget = Budget(3000, 200)
        for _ in range(12):
            net = random_observable_net(
                rng, max_places=2, max_trans=2, max_weight=1,
                symbols=("s", "c"), max_tokens=1,
            )
            target = nonzero_target(rng, net)
            gadget = coverability_to_strong(net, target)
            cov = coverable(net, target)
            v = check_strong(gadget.net, budget)
            if v.outcome == HOLDS:
                assert not cov
            elif v.outcome == FAILS:
                assert cov


PINNED_INCLUSION = """\
# p0 = control place
# p1 = control place
# p2 = control place
# p3 = control place
# p4 = control place
# p5 = control place
# p6 = control place
# p7 = control place
# p8 = control place
# p9 = control place
# g1_p = copy of place 'p' in the g1 branch
# g2a_p = copy of place 'p' in the first g2 branch
# g2b_p = copy of place 'p' in the second g2 branch
# t_start_g1 = start of the g1 branch
# t_start_g2a = start of the first g2 branch
# t_start_g2b = start of the second g2 branch
# g1_t = copy of 't' in the g1 branch
# g1_v = copy of 'v' in the g1 branch
# g2a_w = copy of 'w' in the first g2 branch
# g2b_w = copy of 'w' in the second g2 branch
# t_freeze_g1 = freeze of the g1 branch
# t_freeze_g2a = freeze of the first g2 branch
# t_freeze_g2b = freeze of the second g2 branch
# t_drain_p = drain of one token from 'p'
# t_a_g2a = a loop of the first g2 branch
# t_a_g2b = a loop of the second g2 branch
# t_b_g1 = b switch of the g1 branch
# t_b_g2a = b switch of the first g2 branch
# t_b_g2b = b switch of the second g2 branch
# t_bloop_g1 = b loop of the g1 branch
# t_bloop_g2a = b loop of the first g2 branch
# t_bloop_g2b = b loop of the second g2 branch
places p0 p1 p2 p3 p4 p5 p6 p7 p8 p9 g1_p g2a_p g2b_p
initial p0=1
trans t_start_g1 label x pre p0:1 post p1:1 g1_p:1
trans t_start_g2a label x pre p0:1 post p4:1 g2a_p:1
trans t_start_g2b label x pre p0:1 post p7:1 g2b_p:1
trans g1_t label s pre p1:1 g1_p:1 post p1:1 g1_p:2
trans g1_v label u pre p1:1 g1_p:1 post p1:1
trans g2a_w label s pre p4:1 g2a_p:1 post p4:1 g2a_p:1
trans g2b_w label s pre p7:1 g2b_p:1 post p7:1 g2b_p:1
trans t_freeze_g1 label x pre p1:1 post p2:1
trans t_freeze_g2a label x pre p4:1 post p5:1
trans t_freeze_g2b label x pre p7:1 post p8:1
trans t_drain_p label a pre p2:1 g1_p:1 post p2:1
trans t_a_g2a label a pre p5:1 post p5:1
trans t_a_g2b label a pre p8:1 post p8:1
trans t_b_g1 label b pre p2:1 post p3:1
trans t_b_g2a label b pre p5:1 post p6:1
trans t_b_g2b label b pre p8:1 post p9:1
trans t_bloop_g1 label b pre p3:1 post p3:1
trans t_bloop_g2a label b pre p6:1 post p6:1
trans t_bloop_g2b label b pre p9:1 post p9:1
"""


class TestInclusionGadget:
    def g(self, trans):
        return make_net(["p"], trans, {"p": 1})

    def test_structure(self):
        g1 = self.g({"t": ("s", {"p": 1}, {"p": 1})})
        gadget = inclusion_to_weak(g1, g1)
        net = gadget.net
        assert len(net.places) == 10 + 3 * len(g1.places)
        assert net.initial_marking[net.place_index["p0"]] == 1
        assert sum(net.initial_marking) == 1
        assert set(gadget.provenance) == (set(net.places) | set(net.transitions))
        s = secret_marking(gadget)
        assert sum(s) == 1 and s[net.place_index["p3"]] == 1

    def test_exact_text(self):
        # Place and transition order, arc weights, provenance and secret.
        g1 = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 2}), "v": ("u", {"p": 1}, {})},
                      {"p": 1})
        g2 = self.g({"w": ("s", {"p": 1}, {"p": 1})})
        gadget = inclusion_to_weak(g1, g2)
        comments = [f"{k} = {v}" for k, v in gadget.provenance.items()]
        assert render_lpn(gadget.net, comments=comments) == PINNED_INCLUSION
        assert gadget.secret == (0, 0, 0, 1) + (0,) * 9

    def test_reserved_symbols_rejected(self):
        bad = self.g({"t": ("a", {"p": 1}, {"p": 1})})
        ok = self.g({"t": ("s", {"p": 1}, {"p": 1})})
        with pytest.raises(InputError):
            inclusion_to_weak(bad, ok)
        with pytest.raises(InputError):
            inclusion_to_weak(ok, bad)

    def test_unobservable_rejected(self):
        bad = make_net(["p"], {"u": (EPSILON, {}, {"p": 1})}, {"p": 1})
        ok = self.g({"t": ("s", {"p": 1}, {"p": 1})})
        with pytest.raises(InputError):
            inclusion_to_weak(bad, ok)

    def test_secret_rejects_other_gadget(self, gadcov):
        with pytest.raises(InputError):
            secret_marking(gadcov)

    def test_deadlock_free(self):
        rng = random.Random(62)
        budget = Budget(20000, 2000)
        for _ in range(5):
            gadget = inclusion_to_weak(small_bounded(rng), small_bounded(rng))
            report = check_assumptions(gadget.net, budget)
            assert report.deadlock_free.holds
            assert report.no_infinite_unobservable.holds

    def test_metamorphic_weak_and_opacity(self):
        rng = random.Random(63)
        budget = Budget(50000, 5000)
        seen_incl = seen_not = 0
        while seen_incl < 4 or seen_not < 4:
            g1 = small_bounded(rng)
            g2 = small_bounded(rng)
            gadget = inclusion_to_weak(g1, g2)
            incl = language_inclusion(g1, g2)
            weak = check_weak(gadget.net, budget)
            opaque = check_opacity(gadget.net, [secret_marking(gadget)], budget)
            assert weak.outcome == (FAILS if incl else HOLDS)
            assert opaque.outcome == (HOLDS if incl else FAILS)
            if incl:
                seen_incl += 1
            else:
                seen_not += 1


class TestSelfloopGadget:
    def test_structure(self, e1):
        gadget = selfloop_unobservable(e1, (1,))
        net = gadget.net
        assert net.transitions[-1] == "t_cover_loop"
        assert net.label("t_cover_loop") is EPSILON
        assert net.pre[-1] == net.post[-1] == (1,)
        assert set(gadget.provenance) == {"t_cover_loop"}

    def test_rejects_clash(self):
        net = make_net(["p"], {"t_cover_loop": ("a", {}, {"p": 1})}, {})
        with pytest.raises(InputError):
            selfloop_unobservable(net, (0,))

    def test_metamorphic(self):
        rng = random.Random(64)
        budget = Budget(20000, 2000)
        for _ in range(20):
            net = small_observable(rng)
            target = tuple(rng.randint(0, 2) for _ in net.places)
            gadget = selfloop_unobservable(net, target)
            cov = coverable(net, target)
            rep = check_assumptions(gadget.net, budget)
            outcome = rep.no_infinite_unobservable.outcome
            if outcome == HOLDS:
                assert not cov
            elif outcome == FAILS:
                assert cov


@pytest.mark.parametrize("gadget", [coverability_to_strong, selfloop_unobservable])
@pytest.mark.parametrize("target", [(-1,), (0.5,), (True,)])
def test_gadget_target_must_be_naturals(gadget, target):
    # The target is blamed, not the arcs it would become.
    net = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
    with pytest.raises(InputError, match="target must be non-negative integers"):
        gadget(net, target)
