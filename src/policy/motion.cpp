#include "policy/motion.hpp"

#include <cmath>

namespace lon::policy {

double wrap_angle(double rad) {
  constexpr double kTwoPi = 2.0 * kPi;
  rad = std::fmod(rad + kPi, kTwoPi);
  if (rad < 0.0) rad += kTwoPi;
  return rad - kPi;
}

void CursorMotionModel::observe(const Spherical& dir, SimTime now) {
  if (!has_sample_) {
    position_ = dir;
    last_at_ = now;
    has_sample_ = true;
    return;
  }
  const SimDuration dt = now - last_at_;
  if (dt <= 0) return;  // same-instant duplicate: no velocity signal

  const double d_theta = dir.theta - position_.theta;
  const double d_phi = wrap_angle(dir.phi - position_.phi);
  const double jump = std::sqrt(d_theta * d_theta + d_phi * d_phi);
  if (dt > kMaxGap || jump > kTeleportRad) {
    // Idle gap or teleport: the previous trajectory is over.
    reset();
    position_ = dir;
    last_at_ = now;
    has_sample_ = true;
    return;
  }

  const double dt_s = to_seconds(dt);
  const double vt = d_theta / dt_s;
  const double vp = d_phi / dt_s;
  if (!has_estimate_) {
    v_theta_ = vt;
    v_phi_ = vp;
    has_estimate_ = true;
  } else {
    v_theta_ = kAlpha * vt + (1.0 - kAlpha) * v_theta_;
    v_phi_ = kAlpha * vp + (1.0 - kAlpha) * v_phi_;
  }
  position_ = dir;
  last_at_ = now;
}

double CursorMotionModel::speed() const {
  if (!has_estimate_) return 0.0;
  return std::sqrt(v_theta_ * v_theta_ + v_phi_ * v_phi_);
}

Spherical CursorMotionModel::predict(SimDuration horizon) const {
  if (!has_estimate_) return position_;
  const double h = to_seconds(horizon);
  Spherical out;
  // Clamp just inside the poles — matches the lattice's half-step offset and
  // keeps phi meaningful.
  constexpr double kPoleMargin = 1e-3;
  out.theta = std::clamp(position_.theta + v_theta_ * h, kPoleMargin, kPi - kPoleMargin);
  out.phi = position_.phi + v_phi_ * h;
  constexpr double kTwoPi = 2.0 * kPi;
  out.phi = std::fmod(out.phi, kTwoPi);
  if (out.phi < 0.0) out.phi += kTwoPi;
  return out;
}

void CursorMotionModel::reset() {
  has_sample_ = false;
  has_estimate_ = false;
  v_theta_ = 0.0;
  v_phi_ = 0.0;
}

}  // namespace lon::policy
