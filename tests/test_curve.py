import json
import math

import pytest

from relpoly import Curve, probability_grid


class TestGrid:
    def test_default_101(self):
        grid = probability_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid[50] == 0.5

    def test_too_small(self):
        with pytest.raises(ValueError):
            probability_grid(1)


class TestCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            Curve((0.0, 0.5), (1.0,))
        with pytest.raises(ValueError):
            Curve((0.5, 0.5), (1.0, 1.0))
        with pytest.raises(ValueError):
            Curve((0.0, 1.5), (1.0, 1.0))

    @pytest.mark.parametrize("values", [(), (1.0,)], ids=["no-values", "one-value"])
    def test_no_points_refused(self, values):
        with pytest.raises(ValueError, match="^a curve needs at least one point$"):
            Curve((), values)

    def test_one_point_has_gaps(self):
        a, b = Curve((0.5,), (0.25,)), Curve((0.5,), (0.75,))
        assert a.sup_gap(b) == a.mean_abs_gap(b) == 0.5

    def test_value_lookup(self):
        c = Curve((0.0, 0.5, 1.0), (0.0, 0.7, 1.0))
        assert c.value_at(0.5) == 0.7
        with pytest.raises(ValueError):
            c.value_at(0.25)

    def test_gaps(self):
        a = Curve((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
        b = Curve((0.0, 0.5, 1.0), (0.1, 0.5, 0.8))
        assert a.sup_gap(b) == pytest.approx(0.2)
        assert a.mean_abs_gap(b) == pytest.approx(0.1)

    def test_csv_round_trip_is_bit_exact(self):
        grid = probability_grid(17)
        values = tuple((1 + i) / 17.0 for i in range(17))
        curve = Curve(grid, values)
        again = Curve.from_csv(curve.to_csv())
        assert again.grid == curve.grid
        assert again.values == curve.values

    @pytest.mark.parametrize("grid", [(0.0, math.nan), (math.nan, 1.0), (-0.5, 1.0), (0.0, math.inf)],
                             ids=["nan-last", "nan-first", "negative", "inf"])
    def test_grid_point_outside_unit_interval(self, grid):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            Curve(grid, (1.0, 1.0))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            Curve.from_csv("p,value\n" + "".join(f"{p},1\n" for p in grid))

    @pytest.mark.parametrize("row", ["0.5,1,2", "0.5", "0.5,x", ","])
    def test_csv_row_not_two_numbers_names_its_line(self, row):
        # line 4: the blank line 2 still counts
        with pytest.raises(ValueError, match=f"line 4: expected two numbers p,value, got '{row}'"):
            Curve.from_csv(f"p,value\n\n0,1\n{row}\n1,0\n")

    def test_csv_header_required(self):
        with pytest.raises(ValueError):
            Curve.from_csv("x,y\n0,0\n")

    @pytest.mark.parametrize("text", ["p,value\n", "p,value", "\np,value\n\n \n"],
                             ids=["header", "no-newline", "blank-lines"])
    def test_csv_without_points_refused(self, text):
        with pytest.raises(ValueError, match="^curve CSV has no points$"):
            Curve.from_csv(text)

    def test_metadata_sidecar_schema(self):
        curve = Curve((0.0, 1.0), (0.0, 1.0), {"method": "mc", "runs": 5, "seed": 1, "extra": "x"})
        side = json.loads(curve.metadata_json())
        assert set(side) == {"method", "seed", "runs", "graph", "kind"}
        assert side["method"] == "mc"
        assert side["graph"] is None
