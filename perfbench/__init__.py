"""Offline benchmark of the vcas CLI; see README.md in this directory."""
