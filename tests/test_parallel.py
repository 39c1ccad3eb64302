from prunescope.parallel import parallel_map


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(lambda i: i * i, range(20)) == [i * i for i in range(20)]
