"""Reference values for the test suite, independent of the code they check.

The special-function numbers were produced ahead of time with a 40+ digit
evaluation of the defining integrals (arbitrary-precision erfc), then
rounded to the nearest double.  The erfc table lives in the package, where
the self-test also reads it.  ``literal_endpoint_law`` is a slow pure-Python
enumeration of the walk, one move sequence at a time.
``per_angle_h_sequence`` is the h recursion as it ran before it stepped all
angles together: one angle, every cell of the support carried.
"""

import itertools
import math

import numpy as np

from stickywalk.specfun import ERFC_TABLE  # erfc on 50 equispaced points of [-6, 6]

# erfcx on 50 points of the strip |Re z| <= 30, |Im z| <= 30, restricted to
# Re(z^2) <= 600 so the values stay representable in double precision
ERFCX_STRIP_TABLE = (
    (complex(14.646278068487987, -1.9252266020274966), complex(0.03778634117069013, 0.004944434285918288)),
    (complex(-5.220868842210077, -9.79019421109923), complex(-0.02413420678316591, 0.04488712272723724)),
    (complex(16.209075824184772, 2.803717015182734), complex(0.03374090575690839, -0.0058148530441033425)),
    (complex(22.945966696000944, 3.2371327669022776), complex(0.02408728965762245, -0.0033918467174976993)),
    (complex(-19.83108134932611, -8.483974128396817), complex(-6.475376524335757e+139, -2.30770243309001e+139)),
    (complex(17.04413897017554, 15.492429173416475), complex(0.018139692481976756, -0.016457203960842524)),
    (complex(13.781239748566776, -11.413168066167618), complex(0.02430728419440738, 0.020067791537180777)),
    (complex(22.447523598488083, -19.0017129099325), complex(0.014647612947957795, 0.0123848076126812)),
    (complex(5.770911610099709, 23.319568553283638), complex(0.00565533910560334, -0.02281286774744348)),
    (complex(-9.880671348535628, -27.08636554966508), complex(-0.0067160839658706, 0.018388953122778526)),
    (complex(-17.191602044641947, -1.3998671832278333), complex(-3.4149076720493787e+127, -5.41351990793439e+127)),
    (complex(17.33905230393632, 29.339819865355217), complex(0.008429670941723887, -0.014251759315930692)),
    (complex(-13.835499359793776, 4.026282484807204), complex(-2.8484207859039836e+75, 2.4598793205970845e+76)),
    (complex(22.160231030956787, -2.1826164603507188), complex(0.025190567357363466, 0.002476102712292312)),
    (complex(-27.03992757263386, -15.109558650076846), complex(4.665093842511662e+218, 1.4874330695960242e+218)),
    (complex(3.28523270216629, -27.924456340156013), complex(0.0023488900986575784, 0.019940249317705085)),
    (complex(-19.071252364296903, 24.978153047446725), complex(-0.010903089451946209, -0.014265622016129891)),
    (complex(16.55359832525464, -6.877719399918725), complex(0.029046526480635878, 0.012030968191902172)),
    (complex(27.12775816746035, 27.166485607054383), complex(0.010387444994956937, -0.010395218950616316)),
    (complex(-17.44955754950159, 5.05362795380946), complex(2.5322785468943365e+121, -1.185827342264161e+121)),
    (complex(5.5518501157337, -16.16556629109108), complex(0.010769181492786961, 0.031249368505003622)),
    (complex(1.0848592165429487, -22.5369963383449), complex(0.0012058166152503881, 0.025000430157062836)),
    (complex(-10.856527365101499, -11.59913042103043), complex(-0.024321282520403466, 0.025882263276695912)),
    (complex(22.884721836738485, -19.56778837339437), complex(0.01424673531211529, 0.012168375258822332)),
    (complex(18.921636893630513, -19.885076503777796), complex(0.01417909844270079, 0.014881293932464568)),
    (complex(-20.87066121938806, 5.989136475120638), complex(1.8499394182644014e+173, 7.630171989041216e+173)),
    (complex(8.692393326415065, 1.2217105959868562), complex(0.06327384649172388, -0.008781155144229332)),
    (complex(-12.152457953848664, 19.56279300706023), complex(-0.012950012972638439, -0.020807348544050072)),
    (complex(16.13459143226548, -23.202975670273915), complex(0.011409291354149458, 0.016387026677286153)),
    (complex(-26.109650845278573, -14.957889716641965), complex(-6.201767394778698e+198, 1.4475205512661388e+199)),
    (complex(1.3022260473104943, -26.729148631970553), complex(0.0010280649937460837, 0.021072263594601234)),
    (complex(-7.877526977493307, 14.41283806193443), complex(-0.016537621422187003, -0.030145079454210768)),
    (complex(19.883179860132728, 11.057193323252534), complex(0.02167156962261268, -0.01202851708987842)),
    (complex(-4.353929878018818, 3.0624533335199047), complex(1043.2720364415454, -28870.673491263937)),
    (complex(27.503725324628192, 22.111449524399802), complex(0.01246283872251468, -0.01001138263932618)),
    (complex(5.828522272828167, -13.454622245973251), complex(0.015379734790068798, 0.03533694318402433)),
    (complex(-18.012585511178088, 15.515689328308646), complex(4.417613783000422e+36, 1.1192101916377402e+36)),
    (complex(1.1372393771336817, 13.294751445189476), complex(0.0036342025625743183, -0.042244547925707907)),
    (complex(-1.6467961672026057, -10.011210598030917), complex(-0.00915588672983252, 0.05511222327977547)),
    (complex(21.60689032500418, -2.45524381250981), complex(0.02575290173613743, 0.002920208732031915)),
    (complex(-24.26603571164376, -27.265870821338726), complex(-0.010280941107056036, 0.011543230667566212)),
    (complex(7.043791287660987, 16.927635964033563), complex(0.011864415522963542, -0.028427509337383736)),
    (complex(3.2735409198434127, 10.495153573758955), complex(0.015450654031589918, -0.04912185653459181)),
    (complex(17.737968206542135, -23.34256129766856), complex(0.011653741878818352, 0.015318083616671967)),
    (complex(-21.966092636012412, 1.8832251311636696), complex(1.0153632683411024e+208, -1.7815816419358098e+208)),
    (complex(16.200103276870742, -12.43855142104179), complex(0.021922421748359892, 0.016791936435646894)),
    (complex(9.632764400861461, 28.024968088810148), complex(0.0061976370574664515, -0.018010464079361944)),
    (complex(-2.5835654989380323, 13.199585253260231), complex(-0.008121760277693651, -0.041263425350369906)),
    (complex(23.594598836039836, 7.240784488793281), complex(0.021841931617505105, -0.00669195523362069)),
    (complex(-18.035215070648555, -26.984368219981977), complex(-0.009667328595180267, 0.01445056546020108)),
)

# erfc(1) and erfcx at two spot-check arguments
ERFC_ONE = 0.15729920705028513
ERFCX_I = complex(0.36787944117144233, -0.6071577058413937)


def literal_endpoint_law(u: float, n: int) -> dict[tuple[int, int], float]:
    """P(x_n = x, y_n = y) by listing every one of the 4**n move sequences.

    Each sequence is walked step by step from the origin and weighed on its
    own: on the diagonal a together move weighs u/4 and an apart move
    (2 - u)/4, off it every move weighs 1/4.  The weights ending at one point
    are summed with math.fsum.  Pure Python, shares no code with the package;
    4**n sequences, so keep n small.
    """
    moves = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    terms: dict[tuple[int, int], list[float]] = {}
    for sequence in itertools.product(moves, repeat=n):
        x = y = 0
        weight = 1.0
        for dx, dy in sequence:
            if x != y:
                weight *= 0.25
            elif dx == dy:
                weight *= u / 4
            else:
                weight *= (2 - u) / 4
            x += dx
            y += dy
        terms.setdefault((x, y), []).append(weight)
    return {end: math.fsum(weights) for end, weights in terms.items()}


def per_angle_h_sequence(u: float, t: float, n: int, j: int = 0) -> np.ndarray:
    """h(j, t, k) for k = 0..n, one angle at a time, every cell j <= k carried.

    The package's recursion before it stepped a batch of angles on one buffer
    and stopped carrying cells below the smallest normal double; kept verbatim
    (without the package's budget check on n) as the reference its output
    bytes are compared with.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if j < 0:
        raise ValueError("j must be >= 0")
    out = np.empty(n + 1)
    out[0] = 1.0 if j == 0 else 0.0
    if n == 0:
        return out
    ct = math.cos(t)
    cur = np.zeros(n + 4)
    nxt = np.zeros(n + 4)
    cur[0] = 1.0
    for k in range(1, n + 1):
        # support after step k is j <= k; entries beyond stay zero in both buffers
        nxt[0] = 0.5 * (u * ct * cur[0] + cur[1])
        nxt[1] = 0.25 * ((2.0 - u) * cur[0] + cur[2]) + 0.5 * ct * cur[1]
        if k >= 2:
            nxt[2 : k + 1] = 0.25 * (cur[1:k] + cur[3 : k + 2]) + 0.5 * ct * cur[2 : k + 1]
        out[k] = nxt[j] if j <= k else 0.0
        cur, nxt = nxt, cur
    return out
