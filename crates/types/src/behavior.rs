//! Peer behaviour model (§2 "Attack Model", §3 "Types of introducers").
//!
//! The paper's adversary is deliberately weaker than Byzantine: a peer
//! either behaves ([`Behavior::Cooperative`]) or freerides / serves
//! corrupted content ([`Behavior::Uncooperative`]). Orthogonally, when
//! acting as an *introducer* a peer is either
//! [`IntroducerPolicy::Naive`] (introduces anyone who asks) or
//! [`IntroducerPolicy::Selective`] (refuses uncooperative applicants
//! except for an error rate `err_sel` of misjudgements).

use serde::{Deserialize, Serialize};
use std::fmt;

/// How a peer behaves in resource transactions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Behavior {
    /// Shares resources honestly; reports truthful feedback.
    Cooperative,
    /// Freerides or serves corrupted content; always reports `0`
    /// about its partners (§3: *"an uncooperative peer would always
    /// send a value of 0 for its partners in order to reduce the
    /// impact on its own reputation"*).
    Uncooperative,
}

impl Behavior {
    /// True for [`Behavior::Cooperative`].
    #[inline]
    pub const fn is_cooperative(self) -> bool {
        matches!(self, Behavior::Cooperative)
    }
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behavior::Cooperative => write!(f, "cooperative"),
            Behavior::Uncooperative => write!(f, "uncooperative"),
        }
    }
}

/// How a peer decides whether to grant an introduction.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum IntroducerPolicy {
    /// *"Naive introducers are indiscriminate and will give an
    /// introduction to any new entrant that asks for one."* (§3)
    Naive,
    /// *"Selective introducers … only give introductions to peers that
    /// they believe will behave in a cooperative fashion. However, the
    /// selective introducers also make mistakes in their judgment and
    /// introduce a small percentage `err_sel` of the dishonest nodes
    /// that ask them for an introduction."* (§3)
    ///
    /// `error_rate` is that `err_sel` (Table 1 default: 10%).
    Selective {
        /// Probability of mistakenly introducing an uncooperative
        /// applicant. Must be in `[0, 1]`.
        error_rate: f64,
    },
}

impl IntroducerPolicy {
    /// Whether this policy would *want* to introduce an applicant of
    /// the given behaviour, given a uniform random draw `u ∈ [0, 1)`.
    ///
    /// This is a pure decision function — the reputation threshold
    /// check (`minIntro`) is enforced separately by the lending layer,
    /// because it depends on the introducer's current reputation and
    /// not on its policy.
    #[inline]
    pub fn would_introduce(self, applicant: Behavior, u: f64) -> bool {
        match self {
            IntroducerPolicy::Naive => true,
            IntroducerPolicy::Selective { error_rate } => match applicant {
                Behavior::Cooperative => true,
                Behavior::Uncooperative => u < error_rate,
            },
        }
    }

    /// True for the naive policy.
    #[inline]
    pub const fn is_naive(self) -> bool {
        matches!(self, IntroducerPolicy::Naive)
    }
}

impl fmt::Display for IntroducerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntroducerPolicy::Naive => write!(f, "naive"),
            IntroducerPolicy::Selective { error_rate } => {
                write!(f, "selective(err={:.0}%)", error_rate * 100.0)
            }
        }
    }
}

/// The full static profile of a peer: transaction behaviour plus
/// introduction policy.
///
/// §4 preamble fixes the joint distribution used by every experiment:
/// all *uncooperative* entrants are naive introducers; among
/// *cooperative* peers a fraction `f_naive` are naive and the rest
/// selective.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct PeerProfile {
    /// Transaction behaviour.
    pub behavior: Behavior,
    /// Introduction policy.
    pub policy: IntroducerPolicy,
}

impl PeerProfile {
    /// A cooperative peer with the given policy.
    pub const fn cooperative(policy: IntroducerPolicy) -> Self {
        PeerProfile {
            behavior: Behavior::Cooperative,
            policy,
        }
    }

    /// An uncooperative peer. Per §4, *"all new peers that are
    /// uncooperative are naive introducers"*.
    pub const fn uncooperative() -> Self {
        PeerProfile {
            behavior: Behavior::Uncooperative,
            policy: IntroducerPolicy::Naive,
        }
    }

    /// Draws a profile for a new entrant given the experiment's
    /// mixture parameters and two uniform random draws.
    ///
    /// * `u_behavior` decides cooperative vs. uncooperative against
    ///   `f_uncoop`;
    /// * `u_policy` decides naive vs. selective against `f_naive`
    ///   (only relevant for cooperative peers);
    /// * `err_sel` parameterises the selective policy.
    pub fn sample(
        f_uncoop: f64,
        f_naive: f64,
        err_sel: f64,
        u_behavior: f64,
        u_policy: f64,
    ) -> Self {
        if u_behavior < f_uncoop {
            PeerProfile::uncooperative()
        } else if u_policy < f_naive {
            PeerProfile::cooperative(IntroducerPolicy::Naive)
        } else {
            PeerProfile::cooperative(IntroducerPolicy::Selective {
                error_rate: err_sel,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_introduces_everyone() {
        let p = IntroducerPolicy::Naive;
        assert!(p.would_introduce(Behavior::Cooperative, 0.999));
        assert!(p.would_introduce(Behavior::Uncooperative, 0.999));
    }

    #[test]
    fn selective_always_introduces_cooperative() {
        let p = IntroducerPolicy::Selective { error_rate: 0.0 };
        assert!(p.would_introduce(Behavior::Cooperative, 0.999));
    }

    #[test]
    fn selective_rejects_uncooperative_outside_error_rate() {
        let p = IntroducerPolicy::Selective { error_rate: 0.10 };
        // u >= err_sel  →  correctly refused
        assert!(!p.would_introduce(Behavior::Uncooperative, 0.10));
        assert!(!p.would_introduce(Behavior::Uncooperative, 0.50));
        // u < err_sel  →  the 10% misjudgement of §3
        assert!(p.would_introduce(Behavior::Uncooperative, 0.05));
    }

    #[test]
    fn uncooperative_profile_is_naive() {
        // §4: "all new peers that are uncooperative are naive
        // introducers".
        let p = PeerProfile::uncooperative();
        assert_eq!(p.behavior, Behavior::Uncooperative);
        assert!(p.policy.is_naive());
    }

    #[test]
    fn sample_respects_mixture_boundaries() {
        // u_behavior below f_uncoop → uncooperative.
        let p = PeerProfile::sample(0.25, 0.3, 0.1, 0.2, 0.9);
        assert_eq!(p.behavior, Behavior::Uncooperative);

        // Above f_uncoop, u_policy below f_naive → cooperative naive.
        let p = PeerProfile::sample(0.25, 0.3, 0.1, 0.5, 0.1);
        assert_eq!(p.behavior, Behavior::Cooperative);
        assert!(p.policy.is_naive());

        // Above both → cooperative selective with the given err_sel.
        let p = PeerProfile::sample(0.25, 0.3, 0.1, 0.5, 0.9);
        assert_eq!(p.behavior, Behavior::Cooperative);
        assert_eq!(p.policy, IntroducerPolicy::Selective { error_rate: 0.1 });
    }

    #[test]
    fn display_strings() {
        assert_eq!(Behavior::Cooperative.to_string(), "cooperative");
        assert_eq!(
            IntroducerPolicy::Selective { error_rate: 0.10 }.to_string(),
            "selective(err=10%)"
        );
        assert_eq!(IntroducerPolicy::Naive.to_string(), "naive");
    }
}
