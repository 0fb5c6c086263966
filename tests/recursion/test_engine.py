"""Tests for the layer-4 recursion engine, driven through the full stack."""

import pytest

from repro import HyperspaceStack
from repro.errors import ProtocolError, RecursionLayerError, SimulationError
from repro.recursion import Call, Choice, RecursionEngine, Result, Sync
from repro.topology import FullyConnected, Ring, Torus


def run(fn, args, topology=None, **kw):
    stack = HyperspaceStack(topology or Torus((4, 4)), **kw)
    result, report = stack.run_recursive(fn, args)
    return result, report, stack


class TestBasicProtocol:
    def test_immediate_result(self):
        def leaf(x):
            yield Result(x * 2)

        result, _, _ = run(leaf, 21)
        assert result == 42

    def test_return_sugar(self):
        def leaf(x):
            return x + 1
            yield  # pragma: no cover - makes this a generator

        result, _, _ = run(leaf, 41)
        assert result == 42

    def test_plain_return_none(self):
        def leaf(x):
            if False:
                yield
            return None

        result, _, _ = run(leaf, 0)
        assert result is None

    def test_single_call_sync(self):
        def f(n):
            if n == 0:
                yield Result(0)
            else:
                yield Call(n - 1)
                sub = yield Sync()
                yield Result(sub + 1)

        result, _, _ = run(f, 5)
        assert result == 5

    def test_call_yield_evaluates_to_ticket(self):
        seen = {}

        def f(n):
            if n == "leaf":
                yield Result("ok")
            else:
                ticket = yield Call("leaf")
                seen["ticket"] = ticket
                r = yield Sync()
                yield Result(r)

        result, _, _ = run(f, "root")
        assert result == "ok"
        from repro.mapping import Ticket

        assert isinstance(seen["ticket"], Ticket)

    def test_multi_call_sync_returns_tuple_in_issue_order(self):
        def f(task):
            if isinstance(task, int):
                yield Result(task * task)
            else:
                yield Call(2)
                yield Call(3)
                yield Call(4)
                a, b, c = yield Sync()
                yield Result((a, b, c))

        result, _, _ = run(f, "root")
        assert result == (4, 9, 16)

    def test_sync_without_calls_returns_empty_tuple(self):
        def f(x):
            got = yield Sync()
            yield Result(got)

        result, _, _ = run(f, None)
        assert result == ()

    def test_sequential_sync_batches(self):
        def f(task):
            if isinstance(task, int):
                yield Result(task + 100)
            else:
                yield Call(1)
                first = yield Sync()
                yield Call(2)
                second = yield Sync()
                yield Result((first, second))

        result, _, _ = run(f, "root")
        assert result == (101, 102)

    def test_code_after_result_never_runs(self):
        marker = []

        def f(x):
            yield Result("done")
            marker.append("ran past result")  # pragma: no cover

        result, _, _ = run(f, None)
        assert result == "done"
        assert marker == []

    def test_non_generator_function_rejected(self):
        def not_gen(x):
            return x

        with pytest.raises(ProtocolError):
            run(not_gen, 1)

    def test_bad_yield_value_rejected(self):
        def f(x):
            yield 42

        with pytest.raises(ProtocolError):
            run(f, None)

    def test_engine_requires_callable(self):
        with pytest.raises(RecursionLayerError):
            RecursionEngine("not callable")


class TestRecursionDepth:
    def test_deep_recursion_across_small_machine(self):
        def countdown(n):
            if n == 0:
                yield Result(0)
            else:
                yield Call(n - 1)
                sub = yield Sync()
                yield Result(sub + 1)

        # depth 50 on a 4-node ring: many invocations per node
        result, _, _ = run(countdown, 50, topology=Ring(4))
        assert result == 50

    def test_binary_fanout(self):
        def tree(n):
            if n == 0:
                yield Result(1)
            else:
                yield Call(n - 1)
                yield Call(n - 1)
                a, b = yield Sync()
                yield Result(a + b)

        result, _, _ = run(tree, 6, topology=Torus((3, 3)))
        assert result == 64


class TestChoiceSemantics:
    def test_first_valid_wins(self):
        def f(task):
            if task == "root":
                yield Choice(
                    lambda r: r == "fast",
                    Call("slow"),
                    Call("fast"),
                )
                winner = yield Sync()
                yield Result(winner)
            elif task == "fast":
                yield Result("fast")
            else:
                # slow: long chain before answering
                yield Call("leaf")
                _ = yield Sync()
                yield Result("slow")

        def leaf_or(task):
            pass

        result, _, _ = run(f, "root")
        assert result == "fast"

    def test_all_invalid_yields_none(self):
        def f(task):
            if task == "root":
                yield [lambda r: False, Call("a"), Call("b")]
                got = yield Sync()
                yield Result(("choice", got))
            else:
                yield Result(task)

        result, _, _ = run(f, "root")
        assert result == ("choice", None)

    def test_paper_list_syntax(self):
        def f(task):
            if task == "root":
                yield [lambda r: r is not None, Call("x"), Call("y")]
                got = yield Sync()
                yield Result(got)
            else:
                yield Result(task)

        result, _, _ = run(f, "root")
        assert result in ("x", "y")

    def test_losing_results_ignored_without_cancellation(self):
        def f(task):
            if task == "root":
                yield Choice(lambda r: True, Call("a"), Call("b"))
                got = yield Sync()
                yield Result(got)
            else:
                yield Result(task)

        stack = HyperspaceStack(Torus((4, 4)))
        result, report = stack.run_recursive(
            f, "root", halt_on_result=False
        )
        assert result in ("a", "b")
        stats = stack.last_run.engine_stats
        assert stats.choice_wins == 1
        assert stats.late_replies >= 1  # the loser's evaluation arrived late

    def test_choice_group_plus_plain_call_in_one_batch(self):
        def f(task):
            if task == "root":
                yield Call("plain")
                yield Choice(lambda r: r == "win", Call("win"), Call("lose"))
                plain, chosen = yield Sync()
                yield Result((plain, chosen))
            else:
                yield Result(task)

        result, _, _ = run(f, "root")
        assert result == ("plain", "win")


class TestEngineStats:
    def test_invocation_and_call_counts(self):
        def tree(n):
            if n == 0:
                yield Result(1)
            else:
                yield Call(n - 1)
                yield Call(n - 1)
                a, b = yield Sync()
                yield Result(a + b)

        stack = HyperspaceStack(Torus((4, 4)))
        stack.run_recursive(tree, 3)
        stats = stack.last_run.engine_stats
        assert stats.invocations == 15  # complete binary tree of depth 3
        assert stats.completions == 15
        assert stats.calls_made == 14
        assert stats.syncs == 7

    def test_stats_as_dict_and_merge(self):
        from repro.recursion import EngineStats

        a = EngineStats()
        a.invocations = 3
        b = EngineStats()
        b.invocations = 4
        b.late_replies = 2
        # the end-of-run merge over every node sums field by field and
        # leaves its parts as they were
        merged = EngineStats.summed([a, b])
        assert merged.invocations == 7
        assert merged.as_dict() == {
            **EngineStats().as_dict(), "invocations": 7, "late_replies": 2,
        }
        assert (a.invocations, b.invocations) == (3, 4)
        total = EngineStats.summed([a, b, EngineStats()])
        assert total.as_dict() == merged.as_dict()
        assert EngineStats.summed([]).as_dict() == EngineStats().as_dict()


class _MyCall(Call):
    __slots__ = ()


class _MySync(Sync):
    __slots__ = ()


class _MyResult(Result):
    __slots__ = ()


class _MyChoice(Choice):
    __slots__ = ()


def _tree_with(call, sync, result):
    def tree(n):
        if n == 0:
            yield result(1)
        else:
            yield call(n - 1)
            yield call(n - 1)
            a, b = yield sync()
            yield result(a + b)

    return tree


def _race_with(choice):
    def race(task):
        if task == "root":
            yield choice(lambda r: r == "b", Call("a"), Call("b"))
            got = yield Sync()
            yield Result(got)
        else:
            yield Result(task)

    return race


def _outcome(fn, args):
    stack = HyperspaceStack(Torus((4, 4)))
    result, report = stack.run_recursive(fn, args, halt_on_result=False)
    return result, stack.last_run.engine_stats.as_dict(), report.steps, report.sent_total


class TestOpDispatch:
    """The engine dispatches a yield by its exact class; anything else — a
    subclass of an op, the paper's list form — must take the same path."""

    @pytest.mark.parametrize(
        "ops",
        [(_MyCall, Sync, Result), (Call, _MySync, Result), (Call, Sync, _MyResult)],
        ids=["call", "sync", "result"],
    )
    def test_op_subclass_behaves_like_the_op(self, ops):
        plain = _outcome(_tree_with(Call, Sync, Result), 3)
        assert plain[0] == 8
        assert _outcome(_tree_with(*ops), 3) == plain

    @pytest.mark.parametrize(
        "choice",
        [_MyChoice, lambda is_valid, *calls: [is_valid, *calls]],
        ids=["subclass", "list_form"],
    )
    def test_choice_forms_behave_like_choice(self, choice):
        plain = _outcome(_race_with(Choice), "root")
        assert plain[0] == "b"
        assert plain[1]["choice_groups"] == 1
        assert _outcome(_race_with(choice), "root") == plain


class TestStrictMode:
    def test_strict_raises_on_timeout(self):
        def forever(x):
            yield Call(x)  # no base case: grows forever
            yield Sync()

        stack = HyperspaceStack(Ring(4))
        with pytest.raises(SimulationError):
            stack.run_recursive(forever, 0, max_steps=50)

    def test_non_strict_returns_none(self):
        def forever(x):
            yield Call(x)
            yield Sync()

        stack = HyperspaceStack(Ring(4))
        result, report = stack.run_recursive(forever, 0, max_steps=50, strict=False)
        assert result is None
        assert report.steps == 50
