// Cursor motion model — the input side of the client policy engine.
//
// The paper's quadrant prefetch (figure 4) is a *positional* policy: it looks
// only at where the cursor sits inside its view set. Hiding WAN latency for a
// moving user needs a *kinematic* one: how fast the cursor is moving and in
// which direction, so the agent can fetch the view sets the trajectory will
// cross before the user arrives (Li et al.'s motion-adaptive light-field
// delivery makes the same observation). This model turns the stream of
// notify_cursor samples into an exponentially-weighted angular velocity,
// wrap-aware in phi, and can extrapolate the cursor position over a horizon.
//
// Discontinuities — a teleport in the UI, or a long idle gap — would poison a
// velocity average; both reset the model, after which it (deliberately)
// reports no estimate until two fresh samples arrive.
#pragma once

#include "util/time.hpp"
#include "util/vec3.hpp"

namespace lon::policy {

/// Wraps an angular difference into [-pi, pi).
[[nodiscard]] double wrap_angle(double rad);

class CursorMotionModel {
 public:
  /// EWMA weight of the newest velocity sample (higher = adapts faster to
  /// reversals, noisier on jittery input).
  static constexpr double kAlpha = 0.5;
  /// Samples farther apart than this reset the model (the user idled; the
  /// old velocity says nothing about what happens next).
  static constexpr SimDuration kMaxGap = 10 * kSecond;
  /// A jump larger than this (radians) between consecutive samples is a
  /// teleport, not motion: reset rather than infer an absurd velocity.
  static constexpr double kTeleportRad = 0.6;

  /// Feeds one cursor sample at virtual time `now`. Samples at a repeated
  /// timestamp are ignored (duplicate notifies carry no velocity signal).
  void observe(const Spherical& dir, SimTime now);

  /// True once two compatible samples have produced a velocity estimate.
  [[nodiscard]] bool has_estimate() const { return has_estimate_; }

  /// EWMA angular velocity, rad/s. phi velocity is wrap-aware.
  [[nodiscard]] double theta_velocity() const { return v_theta_; }
  [[nodiscard]] double phi_velocity() const { return v_phi_; }
  /// Velocity magnitude, rad/s (0 without an estimate).
  [[nodiscard]] double speed() const;

  /// Last observed position / sample time.
  [[nodiscard]] const Spherical& position() const { return position_; }
  [[nodiscard]] SimTime last_sample_at() const { return last_at_; }

  /// Extrapolates the cursor `horizon` past the last sample. Theta clamps
  /// just inside the poles; phi wraps. Without an estimate, returns the last
  /// position unchanged.
  [[nodiscard]] Spherical predict(SimDuration horizon) const;

  /// Forgets everything (teleport, reset between scripts).
  void reset();

 private:
  Spherical position_{};
  SimTime last_at_ = 0;
  bool has_sample_ = false;
  bool has_estimate_ = false;
  double v_theta_ = 0.0;
  double v_phi_ = 0.0;
};

}  // namespace lon::policy
