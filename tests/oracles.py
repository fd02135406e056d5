"""Reference formulas that only the tests evaluate."""

from cance.nce import contrast


def adnce_objective(net, noise, inner_points, noise_base_batch):
    """Adversarial objective minimized over psi: the negated contrastive loss
    of L(w) and L(v), with w the detached pullback `inner_points` of the data
    batch through the current L and v the raw base draws. Minimizing it widens
    the noise toward where the classifier is most confident, i.e. it
    maximizes the loss. `nce.adnce_psi_grad` returns it with its gradient.
    """
    return -contrast(net, noise.transform(inner_points),
                     noise.transform(noise_base_batch), noise.nu)[0]
