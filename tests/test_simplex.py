"""The working-set simplex solver against exact support enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bregcheb as bc
from bregcheb.simplex import dual_argmin, lsq_simplex_weights

from helpers import (LAYOUTS, center_duality_gap, domain_box, layout_points,
                     random_generator, reference_dual_hull_argmin,
                     reference_lsq_simplex_weights)

KINDS = ("energy", "quadratic", "negentropy", "neglog")


def test_target_on_a_hull_edge_is_exact():
    # seven vertices, the target on the edge between the first two
    P = np.array([[2, 4, 4], [1, 2, 3], [4, 4, 2], [1, 4, 4], [3, 2, 1],
                  [4, 1, 2], [4, 3, 2]], dtype=float)
    b = 0.5 * (P[0] + P[1])
    _, resid = lsq_simplex_weights(P, b)
    assert resid <= 1e-12
    res = bc.dual_hull_projection(bc.energy(3), bc.CompactSet.finite(P), b)
    assert res.already_in_hull


def test_dependent_rows_take_a_reduction_step():
    # the second row repeats the first with a larger c: no Newton step moves
    # weight between them, only a step along their null combination does
    F = bc.energy(2)
    W = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    c = np.array([0.0, 1e-3, 0.0])
    mu = dual_argmin(F, W, c)
    assert F.fstar(W.T @ mu) - c @ mu <= -5e-4
    # the optimum mu = (0, a, 1 - a) has 2 (2a - 1) = 1e-3
    assert np.abs(mu - [0.0, 0.50025, 0.49975]).max() <= 1e-12


# center duals <mu, K> - f*(G^T mu) of five sets of ``test_criterion_9``
# (seed 404): from some first vertex the working set reaches affinely
# dependent dual points whose K is not affine along the dependency, and
# without a reduction step the solve stopped at duality gaps of 1e-4 to 2e-2
CENTER_CASES = [
    ("energy",
     [[1.0426266430878828, 0.20108694940469826], [1.0198565432302347, 0.08385120672549343],
      [1.1985370883833064, 0.20624858712261887], [1.1692442938837044, 0.06467121766784606],
      [1.20462507103862, 0.09307705950645039], [1.1717056022155357, 0.24960546825692825]]),
    ("negentropy",
     [[1.558624856096315, 1.155014416511701], [1.4061650088288882, 1.2141765167921725],
      [1.4765033399198786, 1.2359887119321564], [1.3418003013962423, 1.1445697045493095],
      [1.545829477770629, 1.0831749658352086]]),
    ("negentropy",
     [[1.213997512700272, 1.1029513677705225], [1.071377115200632, 1.1702653440298785],
      [1.2602933390034456, 1.1077960684908654], [1.0723629519246807, 0.987780335702992],
      [1.0808781085746508, 0.9208384348194022], [1.3266463509819497, 0.9330714525423761]]),
    ("neglog",
     [[1.7524134288153659, 2.3446877091895084], [1.8717384769793048, 2.5176257309929237],
      [1.8796508229267492, 2.4231943186651304], [1.6535480692830136, 2.542728719360242],
      [1.7118284471003298, 2.4432232773115135], [1.6359818412654514, 2.4276760999657094]]),
    ("neglog",
     [[2.0583914592966095, 1.7683904613265011], [2.0437931613557394, 1.946649841383692],
      [2.0831787715924897, 1.7579737149611503], [1.8998794023878305, 1.7454952184635464],
      [1.8188757543592733, 1.7466207336451256], [1.8434885771486185, 2.0325527425007053]]),
]


@pytest.mark.parametrize("kind, points", CENTER_CASES)
def test_center_dual_from_every_first_vertex(kind, points):
    P = np.array(points)
    F = bc.LegendreFunction(kind, 2)
    G = F.grad(P)
    K = np.sum(G * P, axis=1) - F.f(P)
    for first in range(len(P)):
        order = np.arange(len(P))
        order[[0, first]] = order[[first, 0]]
        mu = np.empty(len(P))
        mu[order] = dual_argmin(F, G[order], K[order])
        gap, radius = center_duality_gap(F, P, F.grad_star(mu @ G), mu)
        assert gap <= 1e-12 * (1.0 + radius), first
    cert = bc.solve_subgradient(F, bc.CompactSet.finite(P))
    assert cert.valid and len(cert.farthest) >= 2


# sets with coordinates within 1e-8 of the orthant boundary, so that neglog
# dual coordinates span 1 to 1e8.  The last five are the certificate's
# least-squares problem in those coordinates: the rows of a face share a
# huge coordinate, so a face step through the normal equations, or a
# comparison of gradient entries that counts the rounding of that
# coordinate, stopped at residuals 0.06 to 1.04 where the optimum is
# 7.5e-9 to 0.31
NEAR_BOUNDARY_CASES = [
    ("neglog",
     [[1.430355682046955e-08, 0.7060650065073165], [3.880571471670783, 9.98007598484317e-09],
      [3.0444993137694696, 0.4266942695592548], [0.7190865093500857, 2.5363668039700267],
      [1.0180013816179263e-08, 2.5056601495183664], [1.2386344412351522e-08, 3.946433746869133]],
     [3.585368439250007, 0.45893149886408724]),
    ("neglog",
     [[6.894880205321322e-09, 3.9494216354089007, 1.3798345763502869e-08],
      [8.755270066347321e-09, 0.3395921295522248, 3.6961933849989927],
      [6.084487830499678e-09, 5.8203804309937005e-09, 3.163230503691141],
      [3.2378541680431585, 2.085308210588562, 8.210073629914235e-09],
      [1.416184406121561e-08, 2.4169661422320665, 0.8702275322321492]],
     [3.4548542579148696, 2.8017443447414077, 0.7967041482174216]),
    ("neglog",
     [[3.6417640106908173, 0.975015553299289], [0.9454969644070934, 9.132373205495403e-09],
      [1.9062937044522872e-09, 0.19839002693747304], [4.7497695805516815e-09, 2.1476810475866963],
      [3.0873718708829152, 3.630489216177935]],
     [3.2516060779950684, 1.7792980109648457]),
    ("neglog",
     [[2.3908592507406976e-09, 3.9672488127079215, 1.6522108307599568, 3.50087093205551],
      [7.4732906290827358e-09, 9.3958459883119387e-09, 3.8987733375013041, 1.4126794241008249],
      [1.1232980641960921, 3.9431494153099136, 0.10847004405939933, 3.3734485619767529],
      [0.99522295499322389, 1.2618660636681657e-09, 3.4799993594574787, 3.1554499214406677],
      [4.4865239591342175e-09, 4.9093569514121064e-09, 4.8262671218709999e-09, 6.9658068460781909e-09],
      [2.6463196682414596, 7.4554124001139958e-09, 2.1645687713815489, 3.1160952740496888],
      [1.3944118238657506, 9.7810522071934556e-09, 8.0079348817902512e-09, 1.8320969971334067]],
     [2.5785099001586316, 0.6291933182931482, 2.9088340412797433, 0.30265318247459955]),
    ("negentropy",
     [[1.5650168541049411e-09, 1.3275779909461927], [6.6378485970429205e-09, 2.9646291064594985],
      [6.1769601403770045e-09, 2.2427197870284566e-09], [4.507846361100939e-09, 2.38887027394863]],
     [2.2406915569732444, 2.1788518686445553]),
    # least squares in dual coordinates near +-1e8 in two of three axes:
    # the gradient entries that pick the joining vertex are mostly rounding,
    # and stopping when the first pick brought no step left residual 0.04
    # where 1.5e-8 is reachable
    ("neglog",
     [[2.0961043363310012, 5.6446172699309084e-09, 0.6622224896065715],
      [2.0427905122369327e-09, 6.611407799837503e-09, 1.750973150993045],
      [7.990148029080681e-09, 1.695876631839729, 2.2434153819249323],
      [0.20748054164796664, 3.038701123831746, 2.1987589215551853],
      [6.517029709477365e-09, 9.255679343118123e-09, 1.2824598342374156]],
     [3.82904782352937e-09, 1.1308264110050373e-08, 1.6596368312633514]),
    # the first vertex carries weight 8e-10 on a dual coordinate of -1.9e8:
    # charging its rounding to every entry of a step, not to its own
    # weight's change, stopped the projection 2.4e-6 off in the weights
    ("neglog",
     [[5.185902032794635e-09, 0.22585977571807855], [3.365031814417375, 3.872388264072987],
      [7.93402073302489e-09, 1.7814389954476142], [3.07750508231109, 0.341043418827566],
      [2.6099716001919244, 2.7913973253835866]],
     [2.107885692663116, 0.3728051064704161]),
    ("neglog",
     [[3.499845439739088, 2.7733988894179262], [3.225659524289744, 5.618535104362684e-09],
      [3.68214435400068, 0.31987704596338346], [0.6749325196766354, 0.3527974905585215],
      [0.7705857166740744, 3.29021697138705], [3.4615966269844636, 2.7767000717815695],
      [2.4641812474025055, 3.068561657686037]],
     [1.3084907535353714, 2.929004462699599e-08]),
    ("neglog",
     [[0.813478966235303, 3.8557746464846425, 3.223576442773575],
      [1.9769159366435476, 3.2727828503005783, 8.623079504845691e-09],
      [2.654972149566383, 3.663393974558817, 0.35455462400403637],
      [3.356453995437762, 1.5890776418683314, 9.174481122043799e-09]],
     [2.2529228725451467, 2.4172414663051702, 9.364111653799949e-09]),
    ("neglog",
     [[0.8138111921109554, 1.4634428280447958], [2.373779414099152, 0.6453696462030805],
      [1.3054776559961449e-08, 3.2488892078234772], [1.2895808244383992e-08, 0.8128820376768308],
      [8.89782562425812e-09, 1.797259167770236]],
     [1.54134917186372e-08, 1.1112267878507354]),
    ("neglog",
     [[1.3416021171012658, 2.343259056307066, 1.4050439635725234, 1.6557961762019522, 2.229507220287433],
      [1.3986285644180372e-08, 0.16431787803973563, 8.58767238583568e-09, 1.8664286377287755,
       1.8635523236089961],
      [1.2735152025674742e-08, 1.1137673956235288, 2.1067210127578484, 1.829970315582571,
       2.242796566564264],
      [1.1767378574875733e-08, 2.3079646278672046, 1.3646054031520594, 2.308744415700383,
       0.29230772957740436],
      [1.3712241643049907e-08, 1.7546368623550697, 2.6567092634644482, 1.413709855896808,
       2.6946918149162196],
      [1.135365506476631e-08, 1.0360501778069828e-08, 9.79453428120768e-09, 0.8131297766681238,
       3.9804991497889786]],
     [1.375990988082416e-08, 3.6768453994009428e-06, 2.533512095749869e-08, 1.8704388613917335,
      0.8869910359677541]),
    ("neglog",
     [[3.436776480131017, 1.2113672497728036, 5.4965618094474825e-09, 2.59624932325549,
       2.5024227278493156],
      [0.7927858391961795, 2.0870516820835405, 6.76164615570132e-09, 3.074885538988072,
       1.0110323773892245],
      [8.024278086908314e-09, 3.239537796506884, 7.669058040811792e-09, 2.597071473109595,
       1.066558353965027e-08],
      [7.654489251425523e-09, 3.2002991066240556, 6.556292452385094e-09, 0.20728745384942854,
       3.7690157035791665],
      [3.7570482549024184, 6.723060946517455e-09, 6.4242100415741845e-09, 1.7503036747910192,
       0.39503763400947267],
      [1.4352452149525795e-08, 2.6084476913933723, 3.8805956535331356, 3.854745209345062,
       1.2394684513542824e-08]],
     [1.5993562316157758e-08, 3.6234518007568966e-08, 8.743365691489529e-09, 0.7771248727921964,
      2.983845564574946e-08]),
]


@pytest.mark.parametrize("kind, points, x", NEAR_BOUNDARY_CASES)
def test_near_the_orthant_boundary(kind, points, x):
    P = np.array(points)
    _check_problem(bc.LegendreFunction(kind, P.shape[1]), P, np.array(x))


@st.composite
def hull_problems(draw):
    """A generator, up to seven points in its domain and a query point.

    Layouts: generic points, a repeated point, points on one segment, and
    (for the orthant generators) coordinates within 1e-8 of the boundary.
    About a quarter of the queries lie in the primal image of the dual hull.
    """
    kind = draw(st.sampled_from(KINDS))
    J = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    layout = draw(st.sampled_from(LAYOUTS))
    inside = draw(st.booleans()) and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = random_generator(kind, J, rng)
    P = layout_points(rng, kind, m, J, layout)
    if inside:
        x = F.grad_star(rng.dirichlet(np.ones(m)) @ F.grad(P))
    else:
        x = rng.uniform(*domain_box(kind), size=J)
    return F, P, x


def _on_simplex(mu):
    return bool(np.all(mu >= 0.0)) and abs(mu.sum() - 1.0) <= bc.DEFAULT.simplex_sum


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hull_problems())
def test_solver_matches_support_enumeration(problem):
    _check_problem(*problem)


def _check_problem(F, P, x):
    # least squares against the hull of the points themselves
    mu, resid = lsq_simplex_weights(P, x)
    _, ref = reference_lsq_simplex_weights(P, x)
    assert _on_simplex(mu)
    assert resid <= ref + 1e-12 * (1.0 + ref)
    # the same problem moved away from the origin
    _, moved = lsq_simplex_weights(P + 1e3, x + 1e3)
    assert abs(moved - resid) <= 1e-9
    # least squares in dual coordinates, as ``certify`` poses it; near the
    # orthant boundary they reach 1e8, and no residual is resolved below
    # the rounding of the entries of V - b
    V, b = F.grad(P), F.grad(x)
    mu, resid = lsq_simplex_weights(V, b)
    _, ref = reference_lsq_simplex_weights(V, b)
    assert _on_simplex(mu)
    assert resid <= ref + 1e-12 * (1.0 + ref) + 8.0 * np.finfo(float).eps * np.abs(V - b).max()

    # Bregman projection onto the primal image of the dual hull
    res = bc.dual_hull_projection(F, bc.CompactSet.finite(P), x)
    assert _on_simplex(res.weights)
    W = F.grad(P)

    def objective(mu):
        s = W.T @ mu
        return F.fstar(s) - x @ s

    mu_ref = reference_dual_hull_argmin(F, W, x)
    if mu_ref is not None:
        ref = objective(mu_ref)
        assert objective(res.weights) <= ref + 1e-12 * (1.0 + abs(ref))
    y = res.point
    for c in P:
        # relative to D(x, c): within 1e-8 of the orthant boundary the
        # neglog distances reach 1e8, where one ulp of y moves them by more
        # than an absolute 1e-8
        d_xc = bc.distance(F, x, c)
        slack = d_xc - bc.distance(F, x, y) - bc.distance(F, y, c)
        assert slack >= -bc.DEFAULT.pythagoras_slack * (1.0 + d_xc)
