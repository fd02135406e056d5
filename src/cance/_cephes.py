"""Scalar Cephes `ndtr` and `ndtri` (with the `erf`/`erfc` they use), the
code `scipy.special` compiles, step for step: the same coefficients, the
same Horner order and the same libm `exp`/`log`/`sqrt` through `math`, so
each result has the same bits as scipy's."""

import math

SQRT1_2 = 7.07106781186547524401e-1
SQRT2PI = 2.50662827463100050242e0
MAXLOG = 7.09782712893383996843e2
EXP_M2 = 0.13533528323661269189  # exp(-2)

# erfc on 1 <= x < 8
ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc on x >= 8
ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf on |x| <= 1
ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4)
ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri on |y - 0.5| <= 0.5 - exp(-2)
NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0)
NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri tails with 2 <= sqrt(-2 log y) < 8
NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ndtri tails with 8 <= sqrt(-2 log y) <= 64
NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9)


def polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule. Cephes' p1evl, whose
    leading 1 is implied, is this with coef[0] = 1.0: 1.0 * x is exactly x."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    if x < 0.0:
        return -erf(-x)
    if x > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * polevl(z, ERF_T) / polevl(z, ERF_U)


def erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z < -MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = polevl(x, ERFC_P), polevl(x, ERFC_Q)
    else:
        p, q = polevl(x, ERFC_R), polevl(x, ERFC_S)
    y = (z * p) / q
    return 2.0 - y if a < 0 else y


def ndtr(a: float) -> float:
    """The standard normal CDF at `a`."""
    x = a * SQRT1_2
    z = abs(x)
    if z < SQRT1_2:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    return 1.0 - y if x > 0 else y


def ndtri(y0: float) -> float:
    """The x with ndtr(x) = y0, for y0 in [0, 1]; nan outside."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - EXP_M2:
        y = 1.0 - y
        negate = False
    if y > EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * polevl(y2, NDTRI_P0) / polevl(y2, NDTRI_Q0))
        return x * SQRT2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * polevl(z, NDTRI_P1) / polevl(z, NDTRI_Q1)
    else:
        x1 = z * polevl(z, NDTRI_P2) / polevl(z, NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x
